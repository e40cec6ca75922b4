package wavelet

import (
	"math"
	"slices"
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
			// A batch's shapes: cells often off the grid, runs sharing
			// one x, and exact duplicates.
			for i := 0; i < 220; i++ {
				c := cell{r.Int63n(3*u) - u, r.Int63n(3*u) - u}
				if r.Bernoulli(0.25) {
					c.x = cells[r.Int63n(int64(len(cells)))].x
				}
				if r.Bernoulli(0.1) {
					c = cells[r.Int63n(int64(len(cells)))]
				}
				cells = append(cells, c)
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
// full-domain ranges must equal the linear scan bit for bit. A point is
// checked both ways it can be answered: the piece's stored estimate and
// the list pass a Maintainer snapshot makes. The scan panics on a
// negative index, which the table ignores, so the oracle is the scan of
// the representation with those coefficients left out.
func FuzzPieceTable(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{})
	f.Add(uint8(3), uint64(2), []byte{0, 5, 2, 1, 0, 7, 0, 5, 2, 255, 0, 9})
	f.Add(uint8(12), uint64(3), []byte{0, 0, 2, 0, 10, 3, 16, 1, 0, 1, 1, 0, 4, 0, 1, 200, 0, 40, 0, 3, 3, 9, 9, 9})
	f.Add(uint8(5), uint64(4), []byte{0, 40, 0, 1, 2, 3, 0, 40, 1, 4, 5, 6, 0, 1, 3, 0, 0, 0})
	// Clustered deep supports: every cut inside one 64-key window, then
	// a key's whole root-to-leaf path with the finest subtree under it.
	f.Add(uint8(12), uint64(5), fuzzCoefBytes(subtreeIndices(1<<12, 200, 6)))
	f.Add(uint8(12), uint64(6), fuzzCoefBytes(append(pathIndices(1<<12, 1000), subtreeIndices(1<<12, 1000, 3)...)))
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
		if np := len(rep.pieces.start); np > 3*len(coefs)+1 || len(rep.est) != np {
			t.Fatalf("%d pieces and %d estimates for k = %d", np, len(rep.est), len(coefs))
		}
		oracle := &Representation{U: u}
		for _, c := range rep.Coefs {
			if c.Index >= 0 {
				oracle.Coefs = append(oracle.Coefs, c)
			}
		}
		for x := int64(-2); x < u+2; x++ {
			w := oracle.ScanPointEstimate(x)
			if g := rep.PointEstimate(x); !bitEq(g, w) {
				t.Fatalf("u=%d PointEstimate(%d) = %x, scan %x", u, x, math.Float64bits(g), math.Float64bits(w))
			}
			if g := rep.pieces.point(rep.Coefs, x); !bitEq(g, w) {
				t.Fatalf("u=%d list pass at %d = %x, scan %x", u, x, math.Float64bits(g), math.Float64bits(w))
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

// fuzzCoefBytes encodes in-domain coefficient indices below 2^16 as
// FuzzPieceTable records that keep the index as is, with distinct small
// values.
func fuzzCoefBytes(idx []int64) []byte {
	var data []byte
	for i, x := range idx {
		data = append(data, byte(x>>8), byte(x), 3, 1, byte(i), 32)
	}
	return data
}

// subtreeIndices returns the detail coefficients whose supports lie in
// the aligned window of 2^depth keys holding key x, domain u: their cuts
// are every even key of the window and its end.
func subtreeIndices(u, x int64, depth uint) []int64 {
	logu := Log2(u)
	var idx []int64
	for j := logu - depth; j < logu; j++ {
		first := x >> depth << (depth - (logu - j)) // x's window at level j
		for i := int64(0); i < 1<<(depth-(logu-j)); i++ {
			idx = append(idx, 1<<j+first+i)
		}
	}
	return idx
}

// pathIndices returns key x's root-to-leaf path: the average and one
// detail coefficient per level.
func pathIndices(u, x int64) []int64 {
	logu := Log2(u)
	idx := []int64{0}
	for j := uint(0); j < logu; j++ {
		idx = append(idx, 1<<j+x>>(logu-j))
	}
	return idx
}

// searchPiece is the lookup without a guide, the oracle for
// pieceTable.piece: a binary search over every piece start for the last
// one at or before x.
func searchPiece(start []int64, x int64) int {
	lo, hi := 0, len(start) // start[lo] <= x < start[hi]
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if start[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestPieceLocate checks the guided lookup against searchPiece at every
// boundary it could get wrong: both domain ends, one key either side of
// every piece start and every bucket edge. It covers domains of 1 to
// 2^20 keys, k from 0 to u, and a table whose cuts all fall in one
// bucket, and pins the guide itself: the least power of two ≥ the piece
// count plus one slots, each the piece holding its bucket's first key.
// It also pins the cuts: every in-domain detail coefficient's support
// start, midpoint and end short of u starts a piece, so no ψ changes
// sign inside one.
func TestPieceLocate(t *testing.T) {
	r := zipf.NewRNG(14)
	type table struct {
		name string
		rep  *Representation
	}
	var tables []table
	for _, u := range []int64{1, 2, 1 << 10, 1 << 20} {
		for _, k := range []int{0, 1, 2048} {
			tables = append(tables, table{"random", randomRep(r, u, k)})
		}
	}
	dense := make([]Coef, 1<<10)
	for i := range dense {
		dense[i] = Coef{Index: int64(i), Value: 1}
	}
	tables = append(tables, table{"k = u", NewRepresentation(1<<10, dense)})
	var clustered []Coef
	for _, i := range append(subtreeIndices(1<<20, 5<<12+300, 8), 0) {
		clustered = append(clustered, Coef{Index: i, Value: 1})
	}
	tables = append(tables, table{"clustered", NewRepresentation(1<<20, clustered)})

	for _, tc := range tables {
		pt := tc.rep.pieces
		np := len(pt.start)
		g := pt.logu - pt.gshift
		if len(pt.guide) != 1<<g+1 || 1<<g < np || g > 0 && 1<<(g-1) >= np {
			t.Fatalf("%s u=%d k=%d: guide of %d entries for %d pieces", tc.name, pt.u, len(tc.rep.Coefs), len(pt.guide), np)
		}
		if tc.name == "clustered" && (np < 100 || pt.guide[(5<<12+300)>>pt.gshift+1] != int32(np-1)) {
			t.Fatalf("clustered: %d pieces, guide %v: cuts not in one bucket", np, pt.guide)
		}
		for _, c := range tc.rep.Coefs {
			if c.Index <= 0 || c.Index >= pt.u {
				continue
			}
			_, s, e := pt.support(c.Index)
			for _, cut := range []int64{s, s + (e-s)/2, e} {
				if _, ok := slices.BinarySearch(pt.start, cut); !ok && cut < pt.u {
					t.Fatalf("%s u=%d k=%d: coefficient %d's cut at %d starts no piece", tc.name, pt.u, len(tc.rep.Coefs), c.Index, cut)
				}
			}
		}
		xs := []int64{0, pt.u - 1}
		for _, s := range pt.start {
			xs = append(xs, s-1, s, s+1)
		}
		for b := range pt.guide {
			e := int64(b) << pt.gshift
			if want := searchPiece(pt.start, min(e, pt.u-1)); int(pt.guide[b]) != want {
				t.Fatalf("%s u=%d k=%d: guide[%d] = %d, want the piece holding key %d, %d", tc.name, pt.u, len(tc.rep.Coefs), b, pt.guide[b], e, want)
			}
			xs = append(xs, e-1, e, e+1)
		}
		for _, x := range xs {
			if x < 0 || x >= pt.u {
				continue
			}
			if got, want := pt.piece(x), searchPiece(pt.start, x); got != want {
				t.Fatalf("%s u=%d k=%d: piece(%d) = %d, search %d", tc.name, pt.u, len(tc.rep.Coefs), x, got, want)
			}
		}
	}
}

// TestPieceTableSize pins the table's size at its two extremes: k = u
// (every key a piece, every list a full root-to-leaf path, a guide slot
// per piece plus one, an estimate per piece) and the distinct-index bound
// of ≤ 3k+1 pieces and ≤ k·(3·log2(u)+2) entries.
func TestPieceTableSize(t *testing.T) {
	const u = 1 << 10
	dense := make([]Coef, u)
	for i := range dense {
		dense[i] = Coef{Index: int64(i), Value: float64(i + 1)}
	}
	rep := NewRepresentation(u, dense)
	pt := rep.pieces
	if len(pt.start) != u || len(pt.pos) != u*11 || len(pt.guide) != u+1 || len(rep.est) != u {
		t.Fatalf("k = u = %d: %d pieces, %d entries, %d guide slots, %d estimates; want %d, %d, %d and %d",
			u, len(pt.start), len(pt.pos), len(pt.guide), len(rep.est), u, u*11, u+1, u)
	}
	r := zipf.NewRNG(13)
	for _, k := range []int{1, 7, 64, 300} {
		rep := benchRepRNG(r, 1<<20, k)
		pt := rep.pieces
		if len(pt.start) > 3*k+1 || len(pt.pos) > k*(3*20+2) {
			t.Fatalf("k = %d: %d pieces, %d entries; bounds %d and %d", k, len(pt.start), len(pt.pos), 3*k+1, k*62)
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
// pays once per representation, on random coefficients and on the serving
// histogram's shape (zipfRep): the table, which a Maintainer rebuild also
// pays, and the piece estimates, which only NewRepresentation does.
func BenchmarkPieceTableBuild(b *testing.B) {
	zrep, _ := zipfRep(15)
	for _, rep := range []struct {
		name string
		*Representation
	}{{"random", benchRep(b, 1<<20, 2048)}, {"zipf", zrep}} {
		b.Run("table/"+rep.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				newPieceTable(rep.U, rep.Coefs)
			}
		})
		b.Run("estimates/"+rep.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep.pieces.estimates(rep.Coefs)
			}
		})
	}
}

// sinkEstimate keeps the benchmarks' estimates live.
var sinkEstimate float64

// uniformKeys draws n keys uniformly from [0, u).
func uniformKeys(seed uint64, u int64, n int) []int64 {
	r := zipf.NewRNG(seed)
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = r.Int63n(u)
	}
	return xs
}

// BenchmarkQueryPoint times one point estimate: the scan and the table
// on random coefficients at sequential keys, and the table on the
// serving histogram's shape (zipfRep) at uniform keys, which reach
// pieces all over the domain as a served batch does.
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
	zrep, _ := zipfRep(15)
	xs := uniformKeys(17, zrep.U, 4096)
	b.Run("zipf/uniform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkEstimate += zrep.PointEstimate(xs[i%len(xs)])
		}
	})
}

// BenchmarkQueryRange times one range sum on BenchmarkQueryPoint's
// representations; on the serving shape the ranges are 4096 keys wide
// from uniform starts, as embed_batch's are.
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
	zrep, _ := zipfRep(15)
	xs := uniformKeys(18, zrep.U, 4096)
	b.Run("zipf/uniform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lo := xs[i%len(xs)]
			sinkEstimate += zrep.RangeSum(lo, lo+4095)
		}
	})
}

// zipfRep is the serving histogram's shape: 2^18 Zipf(1.1) records over
// u = 2^20 permuted keys, the k = 2048 largest coefficients. keys draws
// more keys from the same distribution: the hot keys, under which the
// retained coefficients and so the cuts cluster.
func zipfRep(seed uint64) (rep *Representation, keys func() int64) {
	const u = 1 << 20
	z := zipf.NewZipf(u, 1.1)
	perm := zipf.NewPerm(u, seed)
	r := zipf.NewRNG(seed)
	keys = func() int64 { return perm.Apply(z.Sample(r) - 1) }
	freq := map[int64]float64{}
	for i := 0; i < 1<<18; i++ {
		freq[keys()]++
	}
	ks := make([]int64, 0, len(freq))
	for k := range freq {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	counts := make([]float64, len(ks))
	for i, k := range ks {
		counts[i] = freq[k]
	}
	return NewRepresentation(u, SelectTopK(SparseTransformSorted(ks, counts, u), 2048)), keys
}

// BenchmarkPieceLocate times the piece lookup alone, on the serving
// histogram's shape (zipfRep): a point's one lookup and a range's two
// (width 4096, clamped), for keys drawn uniformly and keys drawn from the
// data, where the cuts cluster.
func BenchmarkPieceLocate(b *testing.B) {
	rep, hot := zipfRep(15)
	pt := rep.pieces
	r := zipf.NewRNG(16)
	const n = 4096
	for _, keys := range []struct {
		name string
		next func() int64
	}{{"uniform", func() int64 { return r.Int63n(pt.u) }}, {"data", hot}} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = keys.next()
		}
		b.Run("point/"+keys.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += pt.piece(xs[i%n])
			}
			_ = sink
		})
		b.Run("range/"+keys.name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				lo := xs[i%n]
				sink += pt.piece(lo) + pt.piece(min(lo+4095, pt.u-1))
			}
			_ = sink
		})
	}
}
