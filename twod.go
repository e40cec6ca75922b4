package wavelethist

import (
	"context"
	"fmt"

	"wavelethist/dist"
	"wavelethist/internal/core"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
)

// Multi-dimensional wavelet histograms (the paper's Sections 3-4
// extensions). 2D datasets key records by packed pairs x·u + y over the
// grid [0, u)²; the exact and sampling methods carry over by linearity.

// Method2D selects a 2D construction algorithm.
type Method2D string

// Supported 2D methods.
const (
	// SendV2D is the exact ship-everything baseline in 2D.
	SendV2D Method2D = "Send-V-2D"
	// HWTopk2D is the exact three-round algorithm over 2D coefficients.
	HWTopk2D Method2D = "H-WTopk-2D"
	// TwoLevelS2D is two-level sampling over packed 2D keys.
	TwoLevelS2D Method2D = "TwoLevel-S-2D"
)

// Dataset2D is a grid-keyed dataset.
type Dataset2D struct {
	file *hdfs.File
	side int64
	// spec is the deterministic packed-key recipe distributed builds ship
	// to workers (nil when the dataset is not distributable).
	spec *dist.DatasetSpec
}

// Side returns the grid side length u (domain is [0, u)²).
func (d *Dataset2D) Side() int64 { return d.side }

// NumRecords returns the number of records.
func (d *Dataset2D) NumRecords() int64 { return d.file.NumRecords }

// Spec returns the dataset's generation recipe — what BuildDistributed2D
// ships to workers so they can materialize an identical local copy.
func (d *Dataset2D) Spec() *dist.DatasetSpec { return d.spec }

// NewDataset2DFromPairs loads (x, y) key pairs over the [0, side)² grid.
func NewDataset2DFromPairs(xs, ys []int64, side int64, chunkSize int64, seed uint64) (*Dataset2D, error) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return nil, fmt.Errorf("wavelethist: need equal-length non-empty coordinate slices")
	}
	if !wavelet.IsPowerOfTwo(side) {
		return nil, fmt.Errorf("wavelethist: grid side %d is not a power of two", side)
	}
	keys := make([]int64, len(xs))
	for i := range xs {
		if xs[i] < 0 || xs[i] >= side || ys[i] < 0 || ys[i] >= side {
			return nil, fmt.Errorf("wavelethist: pair (%d, %d) outside [0, %d)²", xs[i], ys[i], side)
		}
		keys[i] = wavelet.Key2D(xs[i], ys[i], side)
	}
	return newDataset2DFromKeys(keys, side, chunkSize, seed)
}

// newDataset2DFromKeys materializes a packed-key 2D dataset through its
// distributable spec, so the local file and every worker's copy have
// identical chunk and split structure by construction.
func newDataset2DFromKeys(keys []int64, side, chunkSize int64, seed uint64) (*Dataset2D, error) {
	spec := dist.DatasetSpec{
		Kind:       "keys",
		Domain:     side * side,
		RecordSize: 8, // packed keys need 8-byte records
		ChunkSize:  chunkSize,
		Seed:       seed,
		Keys:       keys,
	}.Normalize()
	file, _, err := spec.Materialize()
	if err != nil {
		return nil, err
	}
	return &Dataset2D{file: file, side: side, spec: &spec}, nil
}

// ExactGrid scans the dataset and returns the ground-truth u×u frequency
// grid (for accuracy evaluation; the algorithms never call this).
func (d *Dataset2D) ExactGrid() [][]float64 {
	grid := make([][]float64, d.side)
	for i := range grid {
		grid[i] = make([]float64, d.side)
	}
	for _, split := range d.file.Splits(0) {
		r := hdfs.NewSequentialReader(split)
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			x, y := wavelet.SplitKey2D(rec.Key, d.side)
			grid[x][y]++
		}
	}
	return grid
}

// Coarsen projects the dataset onto the smaller grid [0, side/t)² by
// integer-dividing both coordinates by t (a power of two) — the paper's
// remedy for sparse high-dimensional data (Section 4: "lower the
// granularity of the data, i.e., project the data to a smaller grid
// [u/t]^d ... so as to increase the density"). Estimates from the coarse
// histogram apply to t×t cell blocks.
func (d *Dataset2D) Coarsen(t int64) (*Dataset2D, error) {
	if t < 1 || !wavelet.IsPowerOfTwo(t) {
		return nil, fmt.Errorf("wavelethist: coarsening factor %d must be a power of two", t)
	}
	if t >= d.side {
		return nil, fmt.Errorf("wavelethist: coarsening factor %d >= grid side %d", t, d.side)
	}
	newSide := d.side / t
	keys := make([]int64, 0, d.file.NumRecords)
	for _, split := range d.file.Splits(0) {
		r := hdfs.NewSequentialReader(split)
		for {
			rec, ok := r.Next()
			if !ok {
				break
			}
			x, y := wavelet.SplitKey2D(rec.Key, d.side)
			keys = append(keys, wavelet.Key2D(x/t, y/t, newSide))
		}
	}
	return newDataset2DFromKeys(keys, newSide, hdfs.DefaultChunkSize, 0)
}

// Histogram2D is a k-term 2D wavelet histogram.
type Histogram2D struct {
	rep *wavelet.Representation2D
}

// Side returns the grid side length.
func (h *Histogram2D) Side() int64 { return h.rep.U }

// K returns the number of retained coefficients.
func (h *Histogram2D) K() int { return len(h.rep.Coefs) }

// Coefficients returns the retained packed-index coefficients, largest
// magnitude first.
func (h *Histogram2D) Coefficients() []Coefficient {
	cs := make([]wavelet.Coef, len(h.rep.Coefs))
	copy(cs, h.rep.Coefs)
	wavelet.SortCoefsByMagnitude(cs)
	out := make([]Coefficient, len(cs))
	for i, c := range cs {
		out[i] = Coefficient{Index: c.Index, Value: c.Value}
	}
	return out
}

// PointEstimate returns the estimated frequency of cell (x, y) in
// O(log²u): only the cell's error-tree ancestor pairs are evaluated.
// Off-grid cells estimate 0.
func (h *Histogram2D) PointEstimate(x, y int64) float64 { return h.rep.PointEstimate(x, y) }

// RangeCount estimates the number of records in the rectangle
// [xlo, xhi] × [ylo, yhi] (inclusive) in O(log²u): only the tensor
// products of the two axes' boundary candidates contribute. Bounds are
// clamped to the grid per axis; an empty intersection estimates 0.
func (h *Histogram2D) RangeCount(xlo, xhi, ylo, yhi int64) float64 {
	return h.rep.RangeSum(xlo, xhi, ylo, yhi)
}

// Reconstruct materializes the estimated grid (O(k·u²)).
func (h *Histogram2D) Reconstruct() [][]float64 { return h.rep.Reconstruct() }

// Result2D is a 2D build outcome.
type Result2D struct {
	Histogram *Histogram2D
	CommBytes int64
	Rounds    int
	// WireBytes is the measured RPC traffic of a distributed build (0
	// when simulated); Distributed reports which mode ran.
	WireBytes   int64
	Distributed bool
	// PerRound / CandidateSetSize profile multi-round builds (H-WTopk-2D).
	PerRound         []RoundStat
	CandidateSetSize int
}

// Build2D constructs a 2D wavelet histogram.
func Build2D(d *Dataset2D, method Method2D, opts Options) (*Result2D, error) {
	return Build2DContext(context.Background(), d, method, opts)
}

// Build2DContext is Build2D with cancellation.
func Build2DContext(ctx context.Context, d *Dataset2D, method Method2D, opts Options) (*Result2D, error) {
	if d == nil || d.file == nil {
		return nil, fmt.Errorf("wavelethist: nil dataset")
	}
	alg, err := core.ByName2D(string(method))
	if err != nil {
		return nil, err
	}
	out, err := alg.Run(ctx, d.file, opts.toParams(d.side))
	if err != nil {
		return nil, err
	}
	return &Result2D{
		Histogram:        &Histogram2D{rep: out.Rep},
		CommBytes:        out.Metrics.TotalCommBytes(),
		Rounds:           out.Metrics.Rounds,
		PerRound:         perRoundStats(out.Metrics, nil),
		CandidateSetSize: out.Metrics.CandidateSetSize,
	}, nil
}

// BuildDistributed2D constructs a 2D wavelet histogram on the worker
// fleet. All three 2D methods are distributable: Send-V-2D and
// TwoLevel-S-2D as one-round jobs (per-split partials merged in split
// order), H-WTopk-2D as the three-round two-sided TPUT exchange. The
// result is bit-identical to Build2D with the same seed.
//
// Caveat: 2D datasets ship as explicit key lists ("keys" recipes), and
// the dist protocol embeds the dataset recipe in every map RPC, so large
// 2D datasets inflate measured wire bytes (workers cache the
// materialized dataset; only the payload is redundant). A one-time
// dataset-install RPC is on the roadmap; until then prefer modest 2D
// datasets for wire-byte comparisons.
func BuildDistributed2D(ctx context.Context, d *Dataset2D, method Method2D, opts Options, coord *dist.Coordinator) (*Result2D, error) {
	if d == nil || d.file == nil {
		return nil, fmt.Errorf("wavelethist: nil dataset")
	}
	if coord == nil {
		return nil, fmt.Errorf("wavelethist: nil coordinator")
	}
	if d.spec == nil {
		return nil, fmt.Errorf("wavelethist: 2D dataset has no distributable spec")
	}
	out, stats, err := coord.Build2D(ctx, *d.spec, d.file, string(method), opts.toParams(d.side))
	if err != nil {
		return nil, err
	}
	return &Result2D{
		Histogram:        &Histogram2D{rep: out.Rep},
		CommBytes:        stats.WireBytes,
		Rounds:           out.Metrics.Rounds,
		WireBytes:        stats.WireBytes,
		Distributed:      true,
		PerRound:         perRoundStats(out.Metrics, stats.PerRound),
		CandidateSetSize: stats.CandidateSetSize,
	}, nil
}
