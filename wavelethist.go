// Package wavelethist builds wavelet histograms on large keyed datasets in
// a (simulated) MapReduce cluster, reproducing the algorithms of
//
//	Jestes, Yi, Li: "Building Wavelet Histograms on Large Data in
//	MapReduce", PVLDB 5(2), 2011.
//
// A wavelet histogram is the best k-term Haar wavelet representation of a
// dataset's key-frequency vector v over the domain [0, u): the k wavelet
// coefficients of largest magnitude. It supports point-frequency and
// range-selectivity estimation in O(k) time and is the summary of choice
// for query optimization and approximate analytics on massive data.
//
// The package exposes the paper's seven construction methods — the exact
// Send-V, Send-Coef and H-WTopk, and the approximate Basic-S, Improved-S,
// TwoLevel-S and Send-Sketch — running over an in-process Hadoop-like
// runtime (simulated HDFS, Map/Combine/Shuffle/Reduce with exact
// communication accounting, heterogeneous-cluster cost model).
//
// Quick start:
//
//	ds, _ := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
//		Records: 1 << 20, Domain: 1 << 16, Alpha: 1.1, Seed: 42,
//	})
//	res, _ := wavelethist.Build(ds, wavelethist.TwoLevelS, wavelethist.Options{K: 30})
//	fmt.Println(res.Histogram.RangeCount(1000, 2000)) // estimated selectivity
//	fmt.Println(res.CommBytes, res.SimulatedSeconds())
package wavelethist

import (
	"context"
	"fmt"
	"time"

	"wavelethist/internal/cluster"
	"wavelethist/internal/core"
	"wavelethist/internal/wavelet"
)

// Method selects a construction algorithm, named as in the paper.
type Method string

// The seven methods of the paper's evaluation (Section 5).
const (
	// SendV ships every split's local frequency vector (exact baseline).
	SendV Method = "Send-V"
	// SendCoef ships every split's non-zero local wavelet coefficients
	// (exact baseline, strictly worse than Send-V).
	SendCoef Method = "Send-Coef"
	// HWTopk is the paper's exact three-round modified-TPUT algorithm.
	HWTopk Method = "H-WTopk"
	// BasicS is level-1 random sampling with combine.
	BasicS Method = "Basic-S"
	// ImprovedS drops low-frequency sampled keys (biased, ≤ m/ε pairs).
	ImprovedS Method = "Improved-S"
	// TwoLevelS is the paper's unbiased two-level importance-sampling
	// algorithm with O(√m/ε) communication.
	TwoLevelS Method = "TwoLevel-S"
	// SendSketch merges per-split GCS wavelet sketches.
	SendSketch Method = "Send-Sketch"
)

// Methods lists all supported methods.
func Methods() []Method {
	return []Method{SendV, SendCoef, HWTopk, BasicS, ImprovedS, TwoLevelS, SendSketch}
}

// Exact reports whether the method returns the exact best k-term
// representation.
func (m Method) Exact() bool { return m == SendV || m == SendCoef || m == HWTopk }

// Options configures a build.
type Options struct {
	// K is the number of retained coefficients (default 30).
	K int
	// Epsilon is the sampling error parameter for the sampling methods
	// (default 1e-3, the scaled analogue of the paper's 1e-4).
	Epsilon float64
	// SplitSize is the MapReduce split size in bytes (0 = HDFS chunk
	// size, the common Hadoop configuration).
	SplitSize int64
	// Seed makes randomized methods deterministic.
	Seed uint64
	// SketchBytes overrides Send-Sketch's per-split budget
	// (0 = 20KB·log2(u), the paper's recommendation).
	SketchBytes int64
	// DisableCombine turns off Basic-S's combiner (ablation).
	DisableCombine bool
}

func (o Options) toParams(u int64) core.Params {
	return core.Params{
		U:              u,
		K:              o.K,
		Epsilon:        o.Epsilon,
		SplitSize:      o.SplitSize,
		Seed:           o.Seed,
		SketchBytes:    o.SketchBytes,
		CombineEnabled: !o.DisableCombine,
	}.Defaults()
}

// Coefficient is one retained wavelet coefficient.
type Coefficient struct {
	Index int64
	Value float64
}

// Histogram is a k-term wavelet histogram over [0, Domain()).
type Histogram struct {
	rep *wavelet.Representation
}

// Domain returns the key-domain size u.
func (h *Histogram) Domain() int64 { return h.rep.U }

// K returns the number of retained coefficients.
func (h *Histogram) K() int { return h.rep.K() }

// Coefficients returns the retained coefficients, largest magnitude first.
func (h *Histogram) Coefficients() []Coefficient {
	cs := make([]wavelet.Coef, len(h.rep.Coefs))
	copy(cs, h.rep.Coefs)
	// Maintained histograms patch coefficient values in place between
	// snapshots, so re-establish the documented order on the copy.
	wavelet.SortCoefsByMagnitude(cs)
	out := make([]Coefficient, len(cs))
	for i, c := range cs {
		out[i] = Coefficient{Index: c.Index, Value: c.Value}
	}
	return out
}

// PointEstimate returns the estimated frequency of key x in O(log k +
// log u): one binary search for x's piece of the domain, then only the
// error-tree ancestors of x are touched. Keys outside [0, u) estimate 0.
func (h *Histogram) PointEstimate(x int64) float64 { return h.rep.PointEstimate(x) }

// RangeCount estimates the number of records with keys in [lo, hi]
// (inclusive) in O(log k + log u) — range-selectivity estimation, the
// histogram's primary application; only the error-tree ancestors of the
// two bounds contribute.
//
// Bound contract (shared with the serve layer): lo and hi are clamped to
// the domain, and a range with an empty domain intersection — including
// lo > hi — estimates 0. Never an error.
func (h *Histogram) RangeCount(lo, hi int64) float64 { return h.rep.RangeSum(lo, hi) }

// Reconstruct materializes the full estimated frequency vector (O(k·u)).
func (h *Histogram) Reconstruct() []float64 { return h.rep.Reconstruct() }

// SSE computes the sum of squared errors against an exact frequency map —
// the paper's accuracy metric (Figures 6, 7, 15, 18).
func (h *Histogram) SSE(exact map[int64]float64) float64 {
	v := make([]float64, h.rep.U)
	for x, c := range exact {
		if x >= 0 && x < h.rep.U {
			v[x] = c
		}
	}
	return h.rep.SSEAgainst(v)
}

// RoundStat profiles one MapReduce round of a build.
type RoundStat struct {
	// Round is 1-based.
	Round int
	// ModelCommBytes is the round's modeled communication (shuffled pairs
	// plus coordinator broadcast at the paper's wire widths).
	ModelCommBytes int64
	// WireBytes is the round's measured RPC traffic (distributed builds
	// only).
	WireBytes int64
	// RPCs / Retries / ReplayedSplits profile the round's fan-out
	// (distributed builds only). ReplayedSplits counts splits a new owner
	// had to recover by replaying earlier rounds after a worker died or
	// its state lease expired.
	RPCs           int
	Retries        int
	ReplayedSplits int
	// CachedSplits counts splits served from workers' partial caches —
	// re-shipped without recomputation (distributed builds only).
	CachedSplits int
}

// Result is a build's outcome: the histogram plus the paper's two
// efficiency metrics (communication and running time).
type Result struct {
	Histogram *Histogram
	// CommBytes is the total intra-cluster communication. For simulated
	// builds it is the modeled metric (shuffled intermediate pairs plus
	// coordinator broadcasts, at the paper's wire widths); for distributed
	// builds it is the real traffic measured on the coordinator↔worker
	// RPCs (request plus response payload bytes).
	CommBytes int64
	// ModelCommBytes is the paper's modeled communication metric, computed
	// with identical accounting in both modes — the field to compare when
	// contrasting a simulated build with a distributed one.
	ModelCommBytes int64
	// WireBytes is the measured on-the-wire communication of a distributed
	// build; zero for simulated builds.
	WireBytes int64
	// Distributed reports whether the build ran on a waveworker fleet
	// (BuildDistributed) rather than the in-process simulated cluster.
	Distributed bool
	// DistJobID is the coordinator-assigned build identifier of a
	// distributed build ("build-…") — the key for its span trace at
	// GET /dist/v1/trace/{id}; empty for simulated builds.
	DistJobID string
	// Rounds is the number of MapReduce rounds (1 or 3).
	Rounds int
	// PerRound profiles each round; always filled for multi-round builds
	// and for all distributed builds.
	PerRound []RoundStat
	// CandidateSetSize is |R| — H-WTopk's candidate set broadcast before
	// round 3 (0 for other methods).
	CandidateSetSize int
	// CachedSplits counts split results served from workers' partial
	// caches instead of recomputed (distributed builds only): a warm
	// repeat of a one-round build has CachedSplits equal to the split
	// count and recomputes nothing.
	CachedSplits int
	// RecordsRead / BytesRead measure the map-side input scan (sampling
	// methods read far less than the file size).
	RecordsRead int64
	BytesRead   int64
	// WallTime is the real end-to-end build time.
	WallTime time.Duration

	metrics core.Metrics
}

// SimulatedSeconds is the modeled end-to-end running time on the paper's
// 16-node heterogeneous cluster at its default 50% available bandwidth.
func (r *Result) SimulatedSeconds() float64 {
	return r.SimulatedSecondsOn(cluster.Paper())
}

// SimulatedSecondsAt models the paper's Figure 16: the same run at a
// different fraction of the 100 Mbps switch.
func (r *Result) SimulatedSecondsAt(bandwidthFrac float64) float64 {
	c := cluster.Paper()
	c.BandwidthFrac = bandwidthFrac
	return r.SimulatedSecondsOn(c)
}

// SimulatedSecondsOn models the run on an arbitrary cluster.
func (r *Result) SimulatedSecondsOn(c *cluster.Cluster) float64 {
	return r.metrics.SimulatedSeconds(c)
}

// Build constructs a wavelet histogram of the dataset's key frequencies
// with the chosen method on the in-process simulated cluster.
func Build(d *Dataset, method Method, opts Options) (*Result, error) {
	return BuildContext(context.Background(), d, method, opts)
}

// BuildContext is Build with cancellation: canceling ctx aborts the run
// (between reducer batches and periodically inside map-side scans) and
// returns ctx.Err().
func BuildContext(ctx context.Context, d *Dataset, method Method, opts Options) (*Result, error) {
	if d == nil || d.file == nil {
		return nil, fmt.Errorf("wavelethist: nil dataset")
	}
	alg, err := core.ByName(string(method))
	if err != nil {
		return nil, err
	}
	out, err := alg.Run(ctx, d.file, opts.toParams(d.Domain()))
	if err != nil {
		return nil, err
	}
	return &Result{
		Histogram:        &Histogram{rep: out.Rep},
		CommBytes:        out.Metrics.TotalCommBytes(),
		ModelCommBytes:   out.Metrics.TotalCommBytes(),
		Rounds:           out.Metrics.Rounds,
		PerRound:         perRoundStats(out.Metrics, nil),
		CandidateSetSize: out.Metrics.CandidateSetSize,
		RecordsRead:      out.Metrics.MapRecordsRead,
		BytesRead:        out.Metrics.MapBytesRead,
		WallTime:         out.Metrics.WallTime,
		metrics:          out.Metrics,
	}, nil
}

// perRoundStats merges the modeled per-round costs with (for distributed
// builds) the measured per-round fan-out profile.
func perRoundStats(m core.Metrics, dist []distRoundStats) []RoundStat {
	if len(m.RoundCosts) <= 1 && dist == nil {
		return nil // single-round simulated builds stay compact
	}
	out := make([]RoundStat, len(m.RoundCosts))
	for i, rc := range m.RoundCosts {
		out[i] = RoundStat{
			Round:          i + 1,
			ModelCommBytes: rc.ShuffleBytes + rc.BroadcastBytes,
		}
	}
	for _, d := range dist {
		if d.Round >= 1 && d.Round <= len(out) {
			r := &out[d.Round-1]
			r.WireBytes = d.WireBytes
			r.RPCs = d.RPCs
			r.Retries = d.Retries
			r.ReplayedSplits = d.ReplayedSplits
			r.CachedSplits = d.CachedSplits
		}
	}
	return out
}
