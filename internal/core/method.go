package core

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// The paper's method names. The 2D variants (Sections 3 and 4,
// "Multi-dimensional wavelets") run the same stages over packed keys
// x·u + y: a 2D wavelet transform is still a linear transformation of the
// frequency array, so partial sums, thresholds and sampling estimators are
// dimension-agnostic and only the coefficient transform differs.
const (
	MethodSendV       = "Send-V"
	MethodSendCoef    = "Send-Coef"
	MethodHWTopk      = "H-WTopk"
	MethodBasicS      = "Basic-S"
	MethodImprovedS   = "Improved-S"
	MethodTwoLevelS   = "TwoLevel-S"
	MethodSendSketch  = "Send-Sketch"
	MethodSendV2D     = "Send-V-2D"
	MethodHWTopk2D    = "H-WTopk-2D"
	MethodTwoLevelS2D = "TwoLevel-S-2D"
)

// methodSpec is one row of the method table: everything the build plane
// knows about a method name.
type methodSpec struct {
	name string
	dim  int    // 1, or 2 for packed keys over [0, U)²
	job  string // mapred job name ("-round<r>" is appended when rounds > 1)
	// rounds is how many (map → reduce → broadcast) rounds stages returns.
	rounds int
	stages func(e *env) []stage
}

// methods is the method table, in the paper's order.
var methods = []methodSpec{
	{MethodSendV, 1, "send-v", 1, sendVStages},
	{MethodSendCoef, 1, "send-coef", 1, sendCoefStages},
	{MethodHWTopk, 1, "hwtopk", 3, hwTopkStages},
	{MethodBasicS, 1, "basic-s", 1, basicSStages},
	{MethodImprovedS, 1, "improved-s", 1, improvedSStages},
	{MethodTwoLevelS, 1, "twolevel-s", 1, twoLevelSStages},
	{MethodSendSketch, 1, "send-sketch", 1, sendSketchStages},
	{MethodSendV2D, 2, "send-v-2d", 1, sendVStages},
	{MethodHWTopk2D, 2, "hwtopk", 3, hwTopkStages},
	{MethodTwoLevelS2D, 2, "twolevel-s-2d", 1, twoLevelSStages},
}

// ErrUnsupportedMethod reports a method name no build can run. Match with
// errors.Is.
var ErrUnsupportedMethod = errors.New("unsupported method")

// lookup resolves a method name to its table row — the only place a name
// is interpreted.
func lookup(name string) (*methodSpec, error) {
	for i := range methods {
		if methods[i].name == name {
			return &methods[i], nil
		}
	}
	return nil, fmt.Errorf("core: %w %q (supported: %s)", ErrUnsupportedMethod, name, strings.Join(Methods(), ", "))
}

// Methods lists every method name, 1D then 2D. All of them run in-process
// and on a worker fleet (see RoundPlan).
func Methods() []string {
	out := make([]string, len(methods))
	for i := range methods {
		out[i] = methods[i].name
	}
	return out
}

// Rounds reports how many rounds a method needs: 1 for the mergeable
// one-round methods, 3 for H-WTopk, 0 when the name is unknown.
func Rounds(method string) int {
	spec, err := lookup(method)
	if err != nil {
		return 0
	}
	return spec.rounds
}

// stage is one round of a method: what its mappers read and run, what one
// shuffled pair weighs on the wire, which reducer merges the round, and —
// for rounds after the first — what the coordinator tells the mappers.
type stage struct {
	input    mapred.InputFormat
	mapper   func() mapred.Mapper
	combiner mapred.Combiner // optional
	reducer  mapred.Reducer
	// pairBytes is the paper's encoding of one shuffled pair.
	pairBytes func(mapred.KV) int
	// keys bounds every shuffled pair's key to [0, keys): RoundPlan.Run
	// refuses a partial holding any other.
	keys int64
	// tags are the pair tags the stage's mappers emit besides TagNone:
	// RoundPlan.Run refuses a partial holding any other.
	tags []uint8
	// broadcast (nil in round 1 and for one-round methods) runs on the
	// coordinator after the previous round's reduce: it hands what this
	// round's mappers need to the stage's mapper factory and returns the
	// same as a blob for remote workers plus its modeled byte cost.
	broadcast func(rp *RoundPlan) (blob []byte, modeled int64)
	// receive decodes a broadcast blob on a worker, for the mapper factory.
	receive func(blob []byte) error
}

// topReducer is the last round's reducer: it yields the selected
// coefficients, which the plan wraps into a 1D or 2D representation.
type topReducer interface {
	mapred.Reducer
	top() []wavelet.Coef
}

// env is what a method's stages are wired over: the defaulted, validated
// params and what they imply for one file.
type env struct {
	p      Params
	dim    int
	domain int64         // key-domain bound: U in 1D, U² (packed) in 2D
	tf     coefTransform // aggregated frequencies → coefficients
	m      int           // number of splits
	prob   float64       // level-1 sampling probability min(1, 1/(ε²n))
}

// keyBytes is the wire width of a key: the paper's 4-byte integers in 1D,
// 8 bytes for a packed 2D key.
func (e *env) keyBytes() int { return 4 * e.dim }

// fixedBytes is the pairBytes of a method whose pairs all weigh the same.
func fixedBytes(n int) func(mapred.KV) int { return func(mapred.KV) int { return n } }

// Algorithm is a 1D method built in-process.
type Algorithm interface {
	// Name returns the paper's name for the method (e.g. "TwoLevel-S").
	Name() string
	// Run builds the k-term representation of file's key frequencies.
	// Cancellation of ctx aborts the build with ctx.Err().
	Run(ctx context.Context, file *hdfs.File, p Params) (*Output, error)
}

// Algorithm2D is a 2D method built in-process.
type Algorithm2D interface {
	Name() string
	Run(ctx context.Context, file *hdfs.File, p Params) (*Output2D, error)
}

type algorithm string

func (a algorithm) Name() string { return string(a) }

func (a algorithm) Run(ctx context.Context, file *hdfs.File, p Params) (*Output, error) {
	rp, err := NewRoundPlan(file, string(a), p)
	if err == nil {
		err = rp.WantDim(1)
	}
	if err == nil {
		err = rp.RunRound(ctx, rp.NumRounds())
	}
	if err != nil {
		return nil, err
	}
	return rp.Output()
}

type algorithm2D string

func (a algorithm2D) Name() string { return string(a) }

func (a algorithm2D) Run(ctx context.Context, file *hdfs.File, p Params) (*Output2D, error) {
	rp, err := NewRoundPlan(file, string(a), p)
	if err == nil {
		err = rp.WantDim(2)
	}
	if err == nil {
		err = rp.RunRound(ctx, rp.NumRounds())
	}
	if err != nil {
		return nil, err
	}
	return rp.Output2D()
}

// The ten methods as values.
func NewSendV() Algorithm         { return algorithm(MethodSendV) }
func NewSendCoef() Algorithm      { return algorithm(MethodSendCoef) }
func NewHWTopk() Algorithm        { return algorithm(MethodHWTopk) }
func NewBasicS() Algorithm        { return algorithm(MethodBasicS) }
func NewImprovedS() Algorithm     { return algorithm(MethodImprovedS) }
func NewTwoLevelS() Algorithm     { return algorithm(MethodTwoLevelS) }
func NewSendSketch() Algorithm    { return algorithm(MethodSendSketch) }
func NewSendV2D() Algorithm2D     { return algorithm2D(MethodSendV2D) }
func NewHWTopk2D() Algorithm2D    { return algorithm2D(MethodHWTopk2D) }
func NewTwoLevelS2D() Algorithm2D { return algorithm2D(MethodTwoLevelS2D) }

// Algorithms returns the seven 1D methods, in the paper's naming.
func Algorithms() []Algorithm {
	var out []Algorithm
	for _, spec := range methods {
		if spec.dim == 1 {
			out = append(out, algorithm(spec.name))
		}
	}
	return out
}

// ByName returns the 1D algorithm with the given paper name.
func ByName(name string) (Algorithm, error) {
	_, err := lookup(name)
	return algorithm(name), err
}

// ByName2D returns the 2D algorithm with the given name.
func ByName2D(name string) (Algorithm2D, error) {
	_, err := lookup(name)
	return algorithm2D(name), err
}
