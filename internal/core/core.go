// Package core implements the paper's algorithms as MapReduce jobs over
// the simulated Hadoop runtime:
//
//	Exact:        Send-V, Send-Coef (baselines, Section 3) and H-WTopk
//	              (the new three-round modified-TPUT algorithm).
//	Approximate:  Basic-S, Improved-S (Section 4 baselines), TwoLevel-S
//	              (the new two-level sampling algorithm), and Send-Sketch
//	              (GCS wavelet sketches).
//
// Every algorithm consumes an HDFS file of keyed records and produces the
// (best or approximate) k-term wavelet representation of the global
// key-frequency vector, along with exact communication accounting and the
// per-round work profiles the cluster cost model turns into running time.
//
// A method is a row of the method table (method.go): its rounds, its
// dimensionality and one stage — input, mapper, reducer, pair encoding,
// broadcast — per round. RoundPlan (plan.go) turns a row into a build and
// runs every round through one loop (Run): the broadcast, a map side that
// delivers each split's partial (MapRoundSplits' code, in-process via
// RunRound or on a worker fleet), then the round's reduce.
// Every mapper that needs its split's frequency vector v_j builds it one
// way (aggregate.go): keep the keys, radix sort, run-length encode.
package core

import (
	"fmt"
	"slices"
	"time"

	"wavelethist/internal/cluster"
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// Params configures an algorithm run.
type Params struct {
	// U is the key domain size (power of two). Keys outside [0, U) are
	// rejected at transform time.
	U int64
	// K is the number of retained wavelet coefficients (default 30, the
	// paper's default).
	K int
	// Epsilon is the sampling error parameter ε (sampling algorithms).
	Epsilon float64
	// SplitSize is the MapReduce split size β in bytes (0 = chunk size).
	SplitSize int64
	// Seed drives all randomized choices deterministically.
	Seed uint64

	// CombineEnabled toggles the Combine function for Basic-S (the
	// paper's "straightforward improvement"); default true via Defaults.
	CombineEnabled bool

	// SketchBytes is the per-split GCS budget for Send-Sketch
	// (0 = the paper's 20KB·log2(u) recommendation).
	SketchBytes int64
	// SketchDegree is the GCS search-tree degree (0 = 8, "GCS-8").
	SketchDegree int
}

// Defaults fills unset fields with the paper's defaults.
func (p Params) Defaults() Params {
	if p.K == 0 {
		p.K = 30
	}
	if p.Epsilon == 0 {
		p.Epsilon = 1e-3
	}
	if p.SketchDegree == 0 {
		p.SketchDegree = 8
	}
	return p
}

func (p Params) validate() error {
	if !wavelet.IsPowerOfTwo(p.U) {
		return fmt.Errorf("core: domain %d is not a power of two", p.U)
	}
	if p.K < 1 {
		return fmt.Errorf("core: k must be >= 1")
	}
	if p.Epsilon <= 0 || p.Epsilon >= 1 {
		return fmt.Errorf("core: epsilon %v out of (0,1)", p.Epsilon)
	}
	return nil
}

// Metrics reports a run's costs.
type Metrics struct {
	Rounds         int
	ShuffleBytes   int64 // intermediate pairs crossing the network
	BroadcastBytes int64 // modeled coordinator broadcasts (T1/m, R)
	PairsShuffled  int64
	MapRecordsRead int64
	MapBytesRead   int64
	RoundCosts     []cluster.RoundCost // feed to cluster.JobTime
	WallTime       time.Duration       // real CPU time of the simulation
	// CandidateSetSize is |R| — the candidate set H-WTopk broadcasts
	// before round 3 (0 for one-round methods).
	CandidateSetSize int
}

// TotalCommBytes is the paper's "communication" metric: all bytes that
// cross the switch (shuffle plus coordinator broadcasts).
func (m Metrics) TotalCommBytes() int64 { return m.ShuffleBytes + m.BroadcastBytes }

// SimulatedSeconds runs the cluster cost model over the recorded rounds.
func (m Metrics) SimulatedSeconds(c *cluster.Cluster) float64 {
	return c.JobTime(m.RoundCosts)
}

// Output is an algorithm's result.
type Output struct {
	Rep     *wavelet.Representation
	Metrics Metrics
}

// Output2D is the result of a 2D algorithm.
type Output2D struct {
	Rep     *wavelet.Representation2D
	Metrics Metrics
}

// addRound folds one MapReduce round's result into the metrics.
// broadcastBytes is the modeled broadcast shipped to the mappers this round.
func (m *Metrics) addRound(res *mapred.Result, broadcastBytes int64) {
	m.Rounds++
	m.ShuffleBytes += res.ShuffleBytes
	m.BroadcastBytes += broadcastBytes
	m.PairsShuffled += res.PairsShuffled
	m.MapRecordsRead += res.MapRecordsRead
	m.MapBytesRead += res.MapBytesRead
	m.RoundCosts = append(m.RoundCosts, cluster.RoundCost{
		MapTasks:       res.MapTasks,
		ShuffleBytes:   res.ShuffleBytes,
		BroadcastBytes: broadcastBytes,
		ReduceCPUUnits: res.ReduceCPU,
	})
}

// transformWork is the abstract CPU charge of a sparse wavelet transform
// over nk distinct keys: O(|v|·(log u + 1)).
func transformWork(nk int, u int64) float64 {
	return float64(nk) * float64(wavelet.Log2(u)+1)
}

// coefTransform turns a split's (or the reducer's) aggregated
// frequencies — distinct keys in ascending order with their counts — into
// non-zero wavelet coefficients in ascending index order, appended to
// dst, charging work to the task. It abstracts over dimensionality: by
// linearity, everything downstream (partial sums, thresholds, sampling
// estimators) is dimension-agnostic.
type coefTransform func(ctx *mapred.TaskContext, dst []wavelet.Coef, keys []int64, counts []float64) []wavelet.Coef

// transform1D is the O(|v_j| log u) streaming transform of Appendix A,
// emitting in index order without a sort.
func transform1D(u int64) coefTransform {
	return func(ctx *mapred.TaskContext, dst []wavelet.Coef, keys []int64, counts []float64) []wavelet.Coef {
		ctx.AddWork(transformWork(len(keys), u))
		return wavelet.AppendSparseTransformSorted(dst, keys, counts, u)
	}
}

// transform2D computes packed 2D coefficients over [0,u)²; each cell
// contributes to (log2(u)+1)² tensor-path coefficients.
func transform2D(u int64) coefTransform {
	return func(ctx *mapred.TaskContext, dst []wavelet.Coef, keys []int64, counts []float64) []wavelet.Coef {
		logu := float64(wavelet.Log2(u) + 1)
		ctx.AddWork(float64(len(keys)) * logu * logu)
		w := wavelet.SparseTransform2DSorted(keys, counts, u)
		buf := wavelet.GetFreqBuffers()
		defer wavelet.PutFreqBuffers(buf)
		idx, vals := buf.Load(w)
		dst = slices.Grow(dst, len(idx))
		for i := range idx {
			dst = append(dst, wavelet.Coef{Index: idx[i], Value: vals[i]})
		}
		return dst
	}
}

// checkDomain validates a record key against [0, U).
func checkDomain(key, u int64) error {
	if key < 0 || key >= u {
		return fmt.Errorf("core: key %d outside domain [0, %d)", key, u)
	}
	return nil
}
