package wavelet

import (
	"math"
	"testing"

	"wavelethist/internal/zipf"
)

// TestBatchPointsMatchesScalar: for every domain/k shape (including
// k=0), a batch of keys — duplicated, unsorted, and partly out-of-domain
// — must answer bit-identically to the per-key linear scan.
func TestBatchPointsMatchesScalar(t *testing.T) {
	r := zipf.NewRNG(21)
	for _, u := range []int64{1, 2, 4, 64, 1 << 12, 1 << 20} {
		for _, k := range []int{0, 1, 7, 64, 300, 2048} {
			rep := randomRep(r, u, k)
			for _, n := range []int{0, 1, 3, 17, 256} {
				xs := make([]int64, 0, n)
				for len(xs) < n {
					switch {
					case r.Bernoulli(0.1):
						xs = append(xs, r.Int63n(3*u)-u) // often off-domain
					case len(xs) > 0 && r.Bernoulli(0.2):
						xs = append(xs, xs[r.Int63n(int64(len(xs)))]) // duplicate
					default:
						xs = append(xs, r.Int63n(u))
					}
				}
				out := make([]float64, n)
				rep.BatchPoints(xs, out)
				for i, x := range xs {
					if want := rep.ScanPointEstimate(x); !bitEq(out[i], want) {
						t.Fatalf("u=%d k=%d n=%d: BatchPoints[%d] key %d = %x, scan %x",
							u, k, n, i, x, math.Float64bits(out[i]), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestBatchRangesMatchesScalar covers batch ranges against the linear
// scan, including inverted, clamped, and fully off-domain bounds and
// ranges whose bounds share one piece.
func TestBatchRangesMatchesScalar(t *testing.T) {
	r := zipf.NewRNG(22)
	for _, u := range []int64{1, 2, 64, 1 << 12, 1 << 20} {
		for _, k := range []int{0, 1, 64, 512} {
			rep := randomRep(r, u, k)
			n := 200
			los := make([]int64, n)
			his := make([]int64, n)
			for i := 0; i < n; i++ {
				switch {
				case i < 8: // deliberate edge shapes
					edge := [][2]int64{
						{0, u - 1}, {0, 0}, {u - 1, u - 1}, {5, 2},
						{-100, u + 50}, {-10, -5}, {u, u + 100},
						{math.MinInt64, math.MaxInt64},
					}[i]
					los[i], his[i] = edge[0], edge[1]
				case r.Bernoulli(0.3): // narrow ranges inside one cell
					lo := r.Int63n(u)
					los[i], his[i] = lo, lo+r.Int63n(4)
				default:
					los[i] = r.Int63n(3*u) - u
					his[i] = r.Int63n(3*u) - u
				}
			}
			out := make([]float64, n)
			rep.BatchRanges(los, his, out)
			for i := range los {
				if want := rep.ScanRangeSum(los[i], his[i]); !bitEq(out[i], want) {
					t.Fatalf("u=%d k=%d: BatchRanges[%d] (%d, %d) = %x, scan %x",
						u, k, i, los[i], his[i], math.Float64bits(out[i]), math.Float64bits(want))
				}
			}
		}
	}
}

// TestBatchScalarFallback pins the hand-rolled-literal path: a
// Representation without a query index still answers batches (via the
// scan), bit-identical to per-key calls.
func TestBatchScalarFallback(t *testing.T) {
	rep := &Representation{U: 8, Coefs: []Coef{{Index: 0, Value: 4}, {Index: 3, Value: -2}}}
	xs := []int64{-1, 0, 3, 7, 8}
	out := make([]float64, len(xs))
	rep.BatchPoints(xs, out)
	for i, x := range xs {
		if want := rep.PointEstimate(x); !bitEq(out[i], want) {
			t.Fatalf("fallback BatchPoints[%d] = %v, want %v", i, out[i], want)
		}
	}
	los, his := []int64{0, 2, 5}, []int64{7, 3, 1}
	rout := make([]float64, len(los))
	rep.BatchRanges(los, his, rout)
	for i := range los {
		if want := rep.RangeSum(los[i], his[i]); !bitEq(rout[i], want) {
			t.Fatalf("fallback BatchRanges[%d] = %v, want %v", i, rout[i], want)
		}
	}
}

// TestBatchAllocationFree pins the steady-state serving property: 1D
// batch queries allocate nothing.
func TestBatchAllocationFree(t *testing.T) {
	r := zipf.NewRNG(24)
	const u = 1 << 20
	rep := randomRep(r, u, 2048)
	n := 256
	xs := make([]int64, n)
	los := make([]int64, n)
	his := make([]int64, n)
	for i := range xs {
		xs[i] = r.Int63n(u)
		los[i] = r.Int63n(u)
		his[i] = los[i] + r.Int63n(u/4)
	}
	out := make([]float64, n)
	if a := testing.AllocsPerRun(100, func() { rep.BatchPoints(xs, out) }); a != 0 {
		t.Errorf("BatchPoints allocates %v per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { rep.BatchRanges(los, his, out) }); a != 0 {
		t.Errorf("BatchRanges allocates %v per call, want 0", a)
	}
}

// FuzzBatchPoints feeds arbitrary key bytes through BatchPoints and
// demands bit-identical agreement with the linear scan.
func FuzzBatchPoints(f *testing.F) {
	const u = 1 << 16
	r := zipf.NewRNG(25)
	rep := randomRep(r, u, 512)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 255, 255})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
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
				xs[i] = int64(v % (3 * u)) // keep some keys near the domain
			}
		}
		out := make([]float64, n)
		rep.BatchPoints(xs, out)
		for i, x := range xs {
			if want := rep.ScanPointEstimate(x); !bitEq(out[i], want) {
				t.Fatalf("BatchPoints[%d] key %d = %x, scan %x", i, x,
					math.Float64bits(out[i]), math.Float64bits(want))
			}
		}
	})
}

// FuzzBatchRanges is FuzzBatchPoints for BatchRanges.
func FuzzBatchRanges(f *testing.F) {
	const u = 1 << 16
	r := zipf.NewRNG(26)
	rep := randomRep(r, u, 512)
	f.Add([]byte{0, 0, 1, 0, 0, 200, 255, 255})
	f.Add([]byte{9, 9, 9, 9, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n > 1024 {
			n = 1024
		}
		los := make([]int64, n)
		his := make([]int64, n)
		for i := 0; i < n; i++ {
			var v uint64
			for b := 0; b < 4; b++ {
				v = v<<8 | uint64(data[i*8+b])
			}
			los[i] = int64(v%(3*u)) - u
			v = 0
			for b := 4; b < 8; b++ {
				v = v<<8 | uint64(data[i*8+b])
			}
			his[i] = int64(v%(3*u)) - u
		}
		out := make([]float64, n)
		rep.BatchRanges(los, his, out)
		for i := range los {
			if want := rep.ScanRangeSum(los[i], his[i]); !bitEq(out[i], want) {
				t.Fatalf("BatchRanges[%d] (%d, %d) = %x, scan %x", i, los[i], his[i],
					math.Float64bits(out[i]), math.Float64bits(want))
			}
		}
	})
}

func BenchmarkBatchPoints(b *testing.B) {
	rep := benchRep(b, 1<<20, 2048)
	r := zipf.NewRNG(27)
	n := 256
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = r.Int63n(1 << 20)
	}
	out := make([]float64, n)
	rep.BatchPoints(xs, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.BatchPoints(xs, out)
	}
}

func BenchmarkBatchRanges(b *testing.B) {
	rep := benchRep(b, 1<<20, 2048)
	r := zipf.NewRNG(28)
	n := 256
	los := make([]int64, n)
	his := make([]int64, n)
	for i := range los {
		los[i] = r.Int63n(1 << 20)
		his[i] = los[i] + r.Int63n(1<<18)
	}
	out := make([]float64, n)
	rep.BatchRanges(los, his, out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.BatchRanges(los, his, out)
	}
}
