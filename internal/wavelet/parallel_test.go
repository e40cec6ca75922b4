package wavelet

import (
	"math"
	"testing"

	"wavelethist/internal/zipf"
)

// randomRep2D builds a randomized 2D representation with duplicate and
// exact-zero coefficients, mirroring randomRep.
func randomRep2D(r *zipf.RNG, u int64, k int) *Representation2D {
	coefs := make([]Coef, 0, k)
	for i := 0; i < k; i++ {
		idx := r.Int63n(u * u)
		if i > 0 && r.Bernoulli(0.15) {
			idx = coefs[r.Int63n(int64(len(coefs)))].Index
		}
		v := (r.Float64() - 0.5) * 1000
		if r.Bernoulli(0.05) {
			v = 0
		}
		coefs = append(coefs, Coef{Index: idx, Value: v})
	}
	return NewRepresentation2D(u, coefs)
}

// workerGrid is the worker counts the parallel equivalence property
// runs at: the automatic policy (0), serial, small fan-outs that leave
// slice boundaries inside runs of duplicate keys, and more workers than
// most batches have queries.
var workerGrid = []int{0, 1, 2, 3, 8}

// TestBatchPointsParallelMatchesScalar pins the measured-only fan-out
// (see parallel.go): for every worker count, a batch of duplicated /
// unsorted / partly out-of-domain keys must answer bit-identically to
// the linear scan.
func TestBatchPointsParallelMatchesScalar(t *testing.T) {
	r := zipf.NewRNG(31)
	for _, u := range []int64{1, 4, 64, 1 << 12, 1 << 20} {
		for _, k := range []int{0, 1, 64, 1024} {
			rep := randomRep(r, u, k)
			for _, n := range []int{0, 1, 5, 129, 1024} {
				xs := make([]int64, 0, n)
				for len(xs) < n {
					switch {
					case r.Bernoulli(0.1):
						xs = append(xs, r.Int63n(3*u)-u)
					case len(xs) > 0 && r.Bernoulli(0.2):
						xs = append(xs, xs[r.Int63n(int64(len(xs)))])
					default:
						xs = append(xs, r.Int63n(u))
					}
				}
				out := make([]float64, n)
				for _, w := range workerGrid {
					rep.BatchPointsParallel(xs, out, w)
					for i := range xs {
						if want := rep.ScanPointEstimate(xs[i]); !bitEq(out[i], want) {
							t.Fatalf("u=%d k=%d n=%d w=%d: parallel[%d] = %x, scan %x",
								u, k, n, w, i, math.Float64bits(out[i]), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestBatch2DRangeSumMatchesScan pins the new scalar 2D range engine:
// the tensor-candidate walk must reproduce the O(k) scan bit for bit,
// including clamped, inverted, single-cell, and full-grid rectangles.
func TestBatch2DRangeSumMatchesScan(t *testing.T) {
	r := zipf.NewRNG(33)
	for _, u := range []int64{1, 2, 16, 256, 1 << 10} {
		for _, k := range []int{0, 1, 40, 300} {
			rep := randomRep2D(r, u, k)
			type rect struct{ xlo, xhi, ylo, yhi int64 }
			cases := []rect{
				{0, u - 1, 0, u - 1},
				{0, 0, 0, 0},
				{u - 1, u - 1, u - 1, u - 1},
				{5, 2, 0, u - 1}, // empty x
				{0, u - 1, 7, 3}, // empty y
				{-100, u + 50, -100, u + 50},
				{u, u + 10, 0, u - 1},
				{math.MinInt64, math.MaxInt64, math.MinInt64, math.MaxInt64},
			}
			for i := 0; i < 200; i++ {
				cases = append(cases, rect{
					r.Int63n(3*u) - u, r.Int63n(3*u) - u,
					r.Int63n(3*u) - u, r.Int63n(3*u) - u,
				})
			}
			for _, c := range cases {
				got := rep.RangeSum(c.xlo, c.xhi, c.ylo, c.yhi)
				want := rep.ScanRangeSum(c.xlo, c.xhi, c.ylo, c.yhi)
				if !bitEq(got, want) {
					t.Fatalf("u=%d k=%d RangeSum(%d,%d,%d,%d) = %x, scan %x",
						u, k, c.xlo, c.xhi, c.ylo, c.yhi, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestBatch2DRangesMatchesScalar pins the path a 2D batch's rectangles
// take, one scalar RangeSum each (there is no shared rectangle walk), to
// the scan bit for bit on a batch's mix: wide, clamped and inverted
// rectangles and narrow ones inside one cell pair.
func TestBatch2DRangesMatchesScalar(t *testing.T) {
	r := zipf.NewRNG(34)
	for _, u := range []int64{1, 2, 16, 256, 1 << 10} {
		for _, k := range []int{0, 1, 40, 300} {
			rep := randomRep2D(r, u, k)
			n := 180
			xlos := make([]int64, n)
			xhis := make([]int64, n)
			ylos := make([]int64, n)
			yhis := make([]int64, n)
			for i := 0; i < n; i++ {
				xlos[i] = r.Int63n(3*u) - u
				xhis[i] = r.Int63n(3*u) - u
				ylos[i] = r.Int63n(3*u) - u
				yhis[i] = r.Int63n(3*u) - u
				if r.Bernoulli(0.25) { // narrow rectangles inside one cell pair
					xlos[i] = r.Int63n(u)
					xhis[i] = xlos[i] + r.Int63n(3)
					ylos[i] = r.Int63n(u)
					yhis[i] = ylos[i] + r.Int63n(3)
				}
			}
			for i := range xlos {
				got := rep.RangeSum(xlos[i], xhis[i], ylos[i], yhis[i])
				if want := rep.ScanRangeSum(xlos[i], xhis[i], ylos[i], yhis[i]); !bitEq(got, want) {
					t.Fatalf("u=%d k=%d: RangeSum[%d] = %x, scan %x",
						u, k, i, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestBatch2DAllocationFree pins the steady state of a 2D batch, one
// scalar walk per query: a loop of cell PointEstimates and a loop of
// rectangle RangeSums allocate nothing.
func TestBatch2DAllocationFree(t *testing.T) {
	r := zipf.NewRNG(37)
	const u = 1 << 10
	rep := randomRep2D(r, u, 512)
	n := 256
	xlos := make([]int64, n)
	xhis := make([]int64, n)
	ylos := make([]int64, n)
	yhis := make([]int64, n)
	for i := 0; i < n; i++ {
		xlos[i] = r.Int63n(u)
		xhis[i] = xlos[i] + r.Int63n(u/4)
		ylos[i] = r.Int63n(u)
		yhis[i] = ylos[i] + r.Int63n(u/4)
	}
	out := make([]float64, n)
	if a := testing.AllocsPerRun(100, func() {
		for i := range out {
			out[i] = rep.PointEstimate(xlos[i], ylos[i])
		}
	}); a != 0 {
		t.Errorf("%d 2D PointEstimates allocate %v, want 0", n, a)
	}
	if a := testing.AllocsPerRun(100, func() {
		for i := range out {
			out[i] = rep.RangeSum(xlos[i], xhis[i], ylos[i], yhis[i])
		}
	}); a != 0 {
		t.Errorf("%d 2D RangeSums allocate %v, want 0", n, a)
	}
}

// FuzzBatchPointsParallel fuzzes key bytes and the worker count together:
// any fan-out must agree bit for bit with the linear scan.
func FuzzBatchPointsParallel(f *testing.F) {
	const u = 1 << 16
	r := zipf.NewRNG(38)
	rep := randomRep(r, u, 512)
	f.Add(uint8(2), []byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(uint8(7), []byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 255, 255})
	f.Add(uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, wb uint8, data []byte) {
		n := len(data) / 8
		if n > 1024 {
			n = 1024
		}
		xs := make([]int64, n)
		for i := 0; i < n; i++ {
			var v uint64
			for b := 0; b < 8; b++ {
				v = v<<8 | uint64(data[i*8+b])
			}
			xs[i] = int64(v)
			if i%3 == 0 {
				xs[i] = int64(v % (3 * u))
			}
		}
		out := make([]float64, n)
		rep.BatchPointsParallel(xs, out, int(wb%9))
		for i, x := range xs {
			if want := rep.ScanPointEstimate(x); !bitEq(out[i], want) {
				t.Fatalf("w=%d BatchPointsParallel[%d] key %d = %x, scan %x", wb%9, i, x,
					math.Float64bits(out[i]), math.Float64bits(want))
			}
		}
	})
}

// FuzzBatch2DRanges fuzzes the rectangle bounds of a 2D batch, each
// answered by the scalar RangeSum, against the scan, and takes each
// rectangle's corners (xlo, ylo) and (xhi, yhi) as cells, answered by
// PointEstimate, against the scan too: off-grid corners, shared
// coordinates and duplicates included.
func FuzzBatch2DRanges(f *testing.F) {
	const u = 1 << 8
	r := zipf.NewRNG(39)
	rep := randomRep2D(r, u, 256)
	f.Add([]byte{0, 1, 0, 200, 3, 3, 9, 9})
	f.Add([]byte{255, 255, 0, 0, 128, 7, 7, 128, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n > 512 {
			n = 512
		}
		xlos := make([]int64, n)
		xhis := make([]int64, n)
		ylos := make([]int64, n)
		yhis := make([]int64, n)
		for i := 0; i < n; i++ {
			b := data[i*8 : i*8+8]
			xlos[i] = int64(uint64(b[0])<<8|uint64(b[1]))%(3*u) - u
			xhis[i] = int64(uint64(b[2])<<8|uint64(b[3]))%(3*u) - u
			ylos[i] = int64(uint64(b[4])<<8|uint64(b[5]))%(3*u) - u
			yhis[i] = int64(uint64(b[6])<<8|uint64(b[7]))%(3*u) - u
		}
		for i := range xlos {
			got := rep.RangeSum(xlos[i], xhis[i], ylos[i], yhis[i])
			if want := rep.ScanRangeSum(xlos[i], xhis[i], ylos[i], yhis[i]); !bitEq(got, want) {
				t.Fatalf("RangeSum[%d] = %x, scan %x", i,
					math.Float64bits(got), math.Float64bits(want))
			}
			for _, c := range [2][2]int64{{xlos[i], ylos[i]}, {xhis[i], yhis[i]}} {
				got := rep.PointEstimate(c[0], c[1])
				if want := rep.ScanPointEstimate(c[0], c[1]); !bitEq(got, want) {
					t.Fatalf("PointEstimate(%d, %d) = %x, scan %x", c[0], c[1],
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	})
}

func BenchmarkBatchPointsParallel(b *testing.B) {
	rep := benchRep(b, 1<<20, 2048)
	r := zipf.NewRNG(40)
	n := 4096
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = r.Int63n(1 << 20)
	}
	out := make([]float64, n)
	rep.BatchPointsParallel(xs, out, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.BatchPointsParallel(xs, out, 0)
	}
}
