package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// Multi-dimensional variants (Sections 3 and 4, "Multi-dimensional
// wavelets"). A 2D wavelet transform is still a linear transformation of
// the frequency array, so:
//
//   - any 2D coefficient is the sum of the corresponding 2D coefficients
//     of all splits — H-WTopk's modified TPUT runs unchanged over packed
//     2D coefficient indices;
//   - the frequency array of a random sample still approximates v — the
//     sampling algorithms run unchanged over packed 2D keys (with the
//     caveat the paper notes about sparsity hurting relative error).
//
// Records carry packed keys x·u + y over the domain [0, u)².

// Output2D is the result of a 2D algorithm.
type Output2D struct {
	Rep     *wavelet.Representation2D
	Metrics Metrics
}

// check2DDomain validates u and returns the packed-domain bound u².
func check2DDomain(u int64) (int64, error) {
	if !wavelet.IsPowerOfTwo(u) {
		return 0, fmt.Errorf("core: 2D side %d is not a power of two", u)
	}
	return u * u, nil
}

// SendV2D is Send-V over the 2D frequency array.
type SendV2D struct{}

// NewSendV2D returns the 2D Send-V baseline.
func NewSendV2D() *SendV2D { return &SendV2D{} }

// Name implements the naming convention.
func (*SendV2D) Name() string { return "Send-V-2D" }

// makeJob2D exposes Send-V-2D's one-round decomposition — the packed-key
// twin of sendv.go's makeJob — shared by Run and the distributed
// subsystem (MapSplits / MergePartials2D). p must already be defaulted.
func (a *SendV2D) makeJob2D(file *hdfs.File, p Params) (*mapred.Job, repReducer2D, error) {
	packed, err := check2DDomain(p.U)
	if err != nil {
		return nil, nil, err
	}
	red := &coefAggReducer{u: p.U, k: p.K, transform: transform2D(p.U)}
	job := &mapred.Job{
		Name:      "send-v-2d",
		Splits:    file.Splits(p.SplitSize),
		Input:     mapred.SequentialInput{},
		NewMapper: func(hdfs.Split) mapred.Mapper { return &sendVMapper{u: packed} },
		Reducer:   red,
		// Packed 2D keys need 8 bytes; counts stay 4.
		PairBytes:   func(mapred.KV) int { return 12 },
		Streaming:   true,
		Seed:        p.Seed,
		Parallelism: p.Parallelism,
	}
	return job, red, nil
}

// Run builds the best k-term 2D representation exactly.
func (a *SendV2D) Run(ctx context.Context, file *hdfs.File, p Params) (*Output2D, error) {
	return runOneRound2D(ctx, a, file, p)
}

// coefAggReducer aggregates a frequency map and, at Close, applies a
// transform and selects the top-k (shared by 2D Send-V and TwoLevel-S-2D
// after estimator scaling).
type coefAggReducer struct {
	u         int64 // grid side, for the final representation
	k         int
	transform coefTransform
	freq      map[int64]float64
	top       []wavelet.Coef
}

func (r *coefAggReducer) representation2D() *wavelet.Representation2D {
	return wavelet.NewRepresentation2D(r.u, r.top)
}

func (r *coefAggReducer) Setup(*mapred.TaskContext) error {
	r.freq = make(map[int64]float64)
	return nil
}

func (r *coefAggReducer) Reduce(_ *mapred.TaskContext, key int64, vals []mapred.KV) error {
	for _, kv := range vals {
		r.freq[key] += kv.Val
	}
	return nil
}

func (r *coefAggReducer) Close(ctx *mapred.TaskContext) error {
	coefs := transformFreq(r.transform, ctx, r.freq)
	ctx.AddWork(float64(len(coefs)))
	r.top = wavelet.SelectTopK(coefs, r.k)
	return nil
}

// HWTopk2D is H-WTopk over 2D coefficients: identical three-round protocol
// with packed coefficient indices.
type HWTopk2D struct{}

// NewHWTopk2D returns the 2D H-WTopk algorithm.
func NewHWTopk2D() *HWTopk2D { return &HWTopk2D{} }

// Name implements the naming convention.
func (*HWTopk2D) Name() string { return "H-WTopk-2D" }

// Run computes the exact 2D top-k.
func (a *HWTopk2D) Run(ctx context.Context, file *hdfs.File, p Params) (*Output2D, error) {
	p = p.Defaults()
	packed, err := check2DDomain(p.U)
	if err != nil {
		return nil, err
	}
	if err := (Params{U: 2, K: p.K, Epsilon: p.Epsilon}).Defaults().validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	top, metrics, err := runHWTopkRounds(ctx, file, p, packed, transform2D(p.U))
	if err != nil {
		return nil, err
	}
	metrics.WallTime = time.Since(start)
	return &Output2D{
		Rep:     wavelet.NewRepresentation2D(p.U, top),
		Metrics: metrics,
	}, nil
}

// TwoLevelS2D is TwoLevel-S over packed 2D keys: the two-level sampling
// estimator is orthogonal to dimensionality; only the final transform
// changes.
type TwoLevelS2D struct{}

// NewTwoLevelS2D returns the 2D TwoLevel-S algorithm.
func NewTwoLevelS2D() *TwoLevelS2D { return &TwoLevelS2D{} }

// Name implements the naming convention.
func (*TwoLevelS2D) Name() string { return "TwoLevel-S-2D" }

// twoLevel2DReducer reconstructs ŝ, rescales to v̂, 2D-transforms.
type twoLevel2DReducer struct {
	u        int64
	k        int
	p        float64
	epsSqrtM float64
	rho      map[int64]float64
	nulls    map[int64]int64
	top      []wavelet.Coef
}

func (r *twoLevel2DReducer) representation2D() *wavelet.Representation2D {
	return wavelet.NewRepresentation2D(r.u, r.top)
}

func (r *twoLevel2DReducer) Setup(*mapred.TaskContext) error {
	r.rho = make(map[int64]float64)
	r.nulls = make(map[int64]int64)
	return nil
}

func (r *twoLevel2DReducer) Reduce(_ *mapred.TaskContext, key int64, vals []mapred.KV) error {
	for _, kv := range vals {
		if kv.Tag == mapred.TagNull {
			r.nulls[key]++
		} else {
			r.rho[key] += kv.Val
		}
	}
	return nil
}

func (r *twoLevel2DReducer) Close(ctx *mapred.TaskContext) error {
	vHat := make(map[int64]float64, len(r.rho)+len(r.nulls))
	for x, rho := range r.rho {
		vHat[x] += rho
	}
	for x, m := range r.nulls {
		vHat[x] += float64(m) / r.epsSqrtM
	}
	for x := range vHat {
		vHat[x] /= r.p
	}
	coefs := transformFreq(transform2D(r.u), ctx, vHat)
	ctx.AddWork(float64(len(coefs)))
	r.top = wavelet.SelectTopK(coefs, r.k)
	return nil
}

// makeJob2D exposes TwoLevel-S-2D's one-round decomposition, shared by
// Run and the distributed subsystem. p must already be defaulted.
func (a *TwoLevelS2D) makeJob2D(file *hdfs.File, p Params) (*mapred.Job, repReducer2D, error) {
	packed, err := check2DDomain(p.U)
	if err != nil {
		return nil, nil, err
	}
	if p.Epsilon <= 0 || p.Epsilon >= 1 {
		return nil, nil, fmt.Errorf("core: epsilon %v out of (0,1)", p.Epsilon)
	}
	splits := file.Splits(p.SplitSize)
	m := len(splits)
	prob := sampleProb(p.Epsilon, file.NumRecords)
	red := &twoLevel2DReducer{
		u: p.U, k: p.K, p: prob,
		epsSqrtM: p.Epsilon * math.Sqrt(float64(m)),
	}
	job := &mapred.Job{
		Name:   "twolevel-s-2d",
		Splits: splits,
		Input:  mapred.RandomSampleInput{P: prob},
		NewMapper: func(hdfs.Split) mapred.Mapper {
			return &twoLevelSMapper{u: packed, eps: p.Epsilon, m: m}
		},
		Reducer: red,
		// Packed keys: 8 bytes; counts 4; NULL pairs key-only.
		PairBytes: func(kv mapred.KV) int {
			if kv.Tag == mapred.TagNull {
				return 8
			}
			return 12
		},
		Streaming:   true,
		Seed:        p.Seed,
		Parallelism: p.Parallelism,
	}
	return job, red, nil
}

// Run computes the approximate 2D top-k by two-level sampling.
func (a *TwoLevelS2D) Run(ctx context.Context, file *hdfs.File, p Params) (*Output2D, error) {
	return runOneRound2D(ctx, a, file, p)
}
