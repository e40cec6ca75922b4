package wavelet

import (
	"math"
	"testing"

	"wavelethist/internal/zipf"
)

// randomRep builds a randomized representation: indices drawn from [0, u)
// (with deliberate duplicates), values signed, and a sprinkling of exact
// zeros — the shapes the equivalence properties must hold for.
func randomRep(r *zipf.RNG, u int64, k int) *Representation {
	coefs := make([]Coef, 0, k)
	for i := 0; i < k; i++ {
		idx := r.Int63n(u)
		if i > 0 && r.Bernoulli(0.15) {
			idx = coefs[r.Int63n(int64(len(coefs)))].Index // duplicate
		}
		v := (r.Float64() - 0.5) * 1000
		if r.Bernoulli(0.05) {
			v = 0
		}
		coefs = append(coefs, Coef{Index: idx, Value: v})
	}
	return NewRepresentation(u, coefs)
}

// bitEq demands bit-level equality, the property the query indexes
// guarantee against the linear scan.
func bitEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestErrTreePointEquivalence(t *testing.T) {
	r := zipf.NewRNG(7)
	for _, u := range []int64{1, 2, 4, 64, 1 << 12, 1 << 20} {
		for _, k := range []int{0, 1, 7, 64, 300} {
			rep := randomRep(r, u, k)
			xs := []int64{-1, 0, 1, u - 1, u, u + 17, math.MinInt64, math.MaxInt64}
			for i := 0; i < 200; i++ {
				xs = append(xs, r.Int63n(u))
			}
			for _, x := range xs {
				got, want := rep.PointEstimate(x), rep.ScanPointEstimate(x)
				if !bitEq(got, want) {
					t.Fatalf("u=%d k=%d PointEstimate(%d) = %x, scan %x", u, k, x,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

func TestErrTreeRangeEquivalence(t *testing.T) {
	r := zipf.NewRNG(8)
	for _, u := range []int64{1, 2, 64, 1 << 12, 1 << 20} {
		rep := randomRep(r, u, 256)
		type bounds struct{ lo, hi int64 }
		cases := []bounds{
			{0, u - 1}, // full domain
			{0, 0}, {u - 1, u - 1},
			{5, 2},         // empty (lo > hi)
			{-100, u + 50}, // clamps both sides
			{-10, -5},      // entirely below the domain
			{u, u + 100},   // entirely above the domain
			{math.MinInt64, math.MaxInt64},
		}
		for i := 0; i < 300; i++ {
			lo := r.Int63n(3*u) - u
			hi := r.Int63n(3*u) - u
			cases = append(cases, bounds{lo, hi})
		}
		for _, c := range cases {
			got, want := rep.RangeSum(c.lo, c.hi), rep.ScanRangeSum(c.lo, c.hi)
			if !bitEq(got, want) {
				t.Fatalf("u=%d RangeSum(%d, %d) = %x, scan %x", u, c.lo, c.hi,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
		// The clamp contract itself: empty intersections are exactly 0.
		for _, c := range []bounds{{5, 2}, {-10, -5}, {u, u + 100}} {
			if got := rep.RangeSum(c.lo, c.hi); got != 0 {
				t.Fatalf("u=%d RangeSum(%d, %d) = %v, want 0 for empty range", u, c.lo, c.hi, got)
			}
		}
	}
}

func TestErrTree2DPointEquivalence(t *testing.T) {
	r := zipf.NewRNG(9)
	for _, u := range []int64{1, 2, 16, 256, 1 << 10} {
		for _, k := range []int{0, 1, 40, 300} {
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
			rep := NewRepresentation2D(u, coefs)
			type cell struct{ x, y int64 }
			cells := []cell{{-1, 0}, {0, -1}, {u, 0}, {0, u}, {0, 0}, {u - 1, u - 1}}
			for i := 0; i < 150; i++ {
				cells = append(cells, cell{r.Int63n(u), r.Int63n(u)})
			}
			for _, c := range cells {
				got, want := rep.PointEstimate(c.x, c.y), rep.ScanPointEstimate(c.x, c.y)
				if !bitEq(got, want) {
					t.Fatalf("u=%d k=%d PointEstimate(%d, %d) = %x, scan %x", u, k, c.x, c.y,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestErrTreeQueriesAllocationFree pins the steady-state serving property:
// indexed point and range queries do not allocate.
func TestErrTreeQueriesAllocationFree(t *testing.T) {
	r := zipf.NewRNG(10)
	const u = 1 << 20
	rep := randomRep(r, u, 2048)
	var sink float64
	if a := testing.AllocsPerRun(200, func() { sink += rep.PointEstimate(12345) }); a != 0 {
		t.Errorf("PointEstimate allocates %v per op", a)
	}
	if a := testing.AllocsPerRun(200, func() { sink += rep.RangeSum(1000, 900000) }); a != 0 {
		t.Errorf("RangeSum allocates %v per op", a)
	}
	coefs2 := make([]Coef, 512)
	for i := range coefs2 {
		coefs2[i] = Coef{Index: r.Int63n(256 * 256), Value: r.Float64()}
	}
	rep2 := NewRepresentation2D(256, coefs2)
	if a := testing.AllocsPerRun(200, func() { sink += rep2.PointEstimate(17, 200) }); a != 0 {
		t.Errorf("2D PointEstimate allocates %v per op", a)
	}
	_ = sink
}

// FuzzRangeSumBounds fuzzes RangeSum's bound clamping: arbitrary (lo, hi)
// — including wildly out-of-domain and inverted bounds — must agree
// bit-for-bit with the linear scan, equal the explicitly clamped query,
// and estimate exactly 0 on empty intersections.
func FuzzRangeSumBounds(f *testing.F) {
	const u = 1 << 16
	r := zipf.NewRNG(11)
	rep := randomRep(r, u, 512)
	f.Add(int64(0), int64(u-1))
	f.Add(int64(5), int64(2))
	f.Add(int64(-1000), int64(u+1000))
	f.Add(int64(math.MinInt64), int64(math.MaxInt64))
	f.Add(int64(u), int64(u))
	f.Fuzz(func(t *testing.T, lo, hi int64) {
		got := rep.RangeSum(lo, hi)
		if want := rep.ScanRangeSum(lo, hi); !bitEq(got, want) {
			t.Fatalf("RangeSum(%d, %d) = %x, scan %x", lo, hi,
				math.Float64bits(got), math.Float64bits(want))
		}
		clo, chi := lo, hi
		if clo < 0 {
			clo = 0
		}
		if chi >= u {
			chi = u - 1
		}
		if clo > chi {
			if got != 0 {
				t.Fatalf("empty range [%d, %d] estimated %v, want 0", lo, hi, got)
			}
			return
		}
		if want := rep.RangeSum(clo, chi); !bitEq(got, want) {
			t.Fatalf("RangeSum(%d, %d) != clamped RangeSum(%d, %d)", lo, hi, clo, chi)
		}
	})
}

// FuzzPieceTable is the piece table's oracle: over a domain of 2^0 to
// 2^12 keys and fuzzed coefficients — duplicate indices, indices at or
// past u, negative ones, zeros, k = 0 — every in-domain point, two
// off-domain points on each side, and random, inverted, clamped and
// full-domain ranges must equal the linear scan bit for bit. The scan
// panics on a negative index, which the table ignores, so the oracle is
// the scan of the representation with those coefficients left out.
func FuzzPieceTable(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{})
	f.Add(uint8(3), uint64(2), []byte{0, 5, 2, 1, 0, 7, 0, 5, 2, 255, 0, 9})
	f.Add(uint8(12), uint64(3), []byte{0, 0, 2, 0, 10, 3, 16, 1, 0, 1, 1, 0, 4, 0, 1, 200, 0, 40, 0, 3, 3, 9, 9, 9})
	f.Add(uint8(5), uint64(4), []byte{0, 40, 0, 1, 2, 3, 0, 40, 1, 4, 5, 6, 0, 1, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, lg uint8, seed uint64, data []byte) {
		u := int64(1) << (lg % 13)
		var coefs []Coef
		for len(data) >= 6 && len(coefs) < 256 {
			b := data[:6]
			data = data[6:]
			raw := int64(b[0])<<8 | int64(b[1])
			idx := raw % u
			switch b[2] % 8 {
			case 0:
				idx = raw // often at or past u
			case 1:
				idx = -raw - 1
			case 2:
				if len(coefs) > 0 {
					idx = coefs[int(b[3])%len(coefs)].Index // duplicate
				}
			}
			v := math.Ldexp(float64(int16(uint16(b[3])<<8|uint16(b[4]))), int(b[5]%64)-32)
			coefs = append(coefs, Coef{Index: idx, Value: v})
		}
		rep := NewRepresentation(u, coefs)
		if np := len(rep.pieces.start); np > 2*len(coefs)+1 {
			t.Fatalf("%d pieces for k = %d", np, len(coefs))
		}
		oracle := &Representation{U: u}
		for _, c := range rep.Coefs {
			if c.Index >= 0 {
				oracle.Coefs = append(oracle.Coefs, c)
			}
		}
		for x := int64(-2); x < u+2; x++ {
			if g, w := rep.PointEstimate(x), oracle.ScanPointEstimate(x); !bitEq(g, w) {
				t.Fatalf("u=%d PointEstimate(%d) = %x, scan %x", u, x, math.Float64bits(g), math.Float64bits(w))
			}
		}
		r := zipf.NewRNG(seed)
		ranges := [][2]int64{{0, u - 1}, {-5, u + 5}, {u - 1, 0}, {math.MinInt64, math.MaxInt64}, {u, u + 3}}
		for i := 0; i < 64; i++ {
			ranges = append(ranges, [2]int64{r.Int63n(u+8) - 4, r.Int63n(u+8) - 4})
		}
		for _, b := range ranges {
			if g, w := rep.RangeSum(b[0], b[1]), oracle.ScanRangeSum(b[0], b[1]); !bitEq(g, w) {
				t.Fatalf("u=%d RangeSum(%d, %d) = %x, scan %x", u, b[0], b[1], math.Float64bits(g), math.Float64bits(w))
			}
		}
	})
}

// TestPieceTableSize pins the table's size at its two extremes: k = u
// (every pair of keys a piece, every list a full root-to-leaf path) and
// the distinct-index bound of ≤ 2k+1 pieces and ≤ k·(2·log2(u)+1)
// entries.
func TestPieceTableSize(t *testing.T) {
	const u = 1 << 10
	dense := make([]Coef, u)
	for i := range dense {
		dense[i] = Coef{Index: int64(i), Value: float64(i + 1)}
	}
	pt := NewRepresentation(u, dense).pieces
	if len(pt.start) != u/2 || len(pt.pos) != u/2*11 {
		t.Fatalf("k = u = %d: %d pieces, %d entries; want %d and %d", u, len(pt.start), len(pt.pos), u/2, u/2*11)
	}
	r := zipf.NewRNG(13)
	for _, k := range []int{1, 7, 64, 300} {
		rep := benchRepRNG(r, 1<<20, k)
		pt := rep.pieces
		if len(pt.start) > 2*k+1 || len(pt.pos) > k*(2*20+1) {
			t.Fatalf("k = %d: %d pieces, %d entries; bounds %d and %d", k, len(pt.start), len(pt.pos), 2*k+1, k*41)
		}
	}
}

func benchRep(b *testing.B, u int64, k int) *Representation {
	b.Helper()
	return benchRepRNG(zipf.NewRNG(12), u, k)
}

// benchRepRNG draws k distinct coefficient indices from [0, u).
func benchRepRNG(r *zipf.RNG, u int64, k int) *Representation {
	coefs := make([]Coef, k)
	seen := map[int64]bool{}
	for i := range coefs {
		idx := r.Int63n(u)
		for seen[idx] {
			idx = r.Int63n(u)
		}
		seen[idx] = true
		coefs[i] = Coef{Index: idx, Value: (r.Float64() - 0.5) * 1000}
	}
	return NewRepresentation(u, coefs)
}

// BenchmarkPieceTableBuild times the eager index build NewRepresentation
// pays once per representation.
func BenchmarkPieceTableBuild(b *testing.B) {
	rep := benchRep(b, 1<<20, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newPieceTable(rep.U, rep.Coefs)
	}
}

func BenchmarkQueryPoint(b *testing.B) {
	rep := benchRep(b, 1<<20, 2048)
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = rep.ScanPointEstimate(int64(i) & (1<<20 - 1))
		}
	})
	b.Run("pieces", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = rep.PointEstimate(int64(i) & (1<<20 - 1))
		}
	})
}

func BenchmarkQueryRange(b *testing.B) {
	rep := benchRep(b, 1<<20, 2048)
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := int64(i) & (1<<19 - 1)
			_ = rep.ScanRangeSum(lo, lo+1<<18)
		}
	})
	b.Run("pieces", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := int64(i) & (1<<19 - 1)
			_ = rep.RangeSum(lo, lo+1<<18)
		}
	})
}
