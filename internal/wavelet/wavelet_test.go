package wavelet

import (
	"math"
	"testing"
	"testing/quick"

	"wavelethist/internal/zipf"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// The paper's Figure 1 example: v = (3,5,10,8,2,2,10,14).
// Tree coefficients: total average 6.75 and details (0.25; -1.5, 2.5;
// 1, -1, 0, 2), each scaled by sqrt(u/2^l).
func TestTransformPaperExample(t *testing.T) {
	v := []float64{3, 5, 10, 8, 2, 2, 10, 14}
	w := Transform(v)
	u := 8.0
	// Tree (unnormalized) coefficients: total average 6.75 (the figure's
	// "6.8"), then 0.25 ("0.3"), then {2.5, 5}, then {1, -1, 0, 2}; the
	// energy-preserving coefficient at tree level l is the tree value
	// times sqrt(u/2^l).
	want := []float64{
		6.75 * math.Sqrt(u),  // w1 = sum/sqrt(u) = 54/sqrt(8)
		0.25 * math.Sqrt(u),  // w2
		2.5 * math.Sqrt(u/2), // w3
		5 * math.Sqrt(u/2),   // w4
		1 * math.Sqrt(u/4),   // w5
		-1 * math.Sqrt(u/4),  // w6
		0 * math.Sqrt(u/4),   // w7
		2 * math.Sqrt(u/4),   // w8
	}
	for i := range want {
		if !almostEq(w[i], want[i], eps) {
			t.Errorf("w[%d] = %v, want %v", i, w[i], want[i])
		}
	}
}

// Figure 2 gives the coefficients directly as basis dot products.
func TestTransformMatchesBasisDefinition(t *testing.T) {
	r := zipf.NewRNG(1)
	for _, u := range []int64{1, 2, 4, 8, 16, 64} {
		v := make([]float64, u)
		for i := range v {
			v[i] = math.Floor(r.Float64()*20) - 5
		}
		w := Transform(v)
		for i := int64(0); i < u; i++ {
			var dot float64
			for x := int64(0); x < u; x++ {
				dot += v[x] * BasisAt(i, x, u)
			}
			if !almostEq(w[i], dot, 1e-9) {
				t.Errorf("u=%d w[%d] = %v, want dot %v", u, i, w[i], dot)
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	r := zipf.NewRNG(2)
	for _, u := range []int64{1, 2, 8, 32, 256, 1024} {
		v := make([]float64, u)
		for i := range v {
			v[i] = r.Float64() * 100
		}
		got := Inverse(Transform(v))
		for i := range v {
			if !almostEq(v[i], got[i], 1e-9) {
				t.Fatalf("u=%d round trip v[%d]: %v != %v", u, i, got[i], v[i])
			}
		}
	}
}

// Parseval: transform preserves energy exactly (paper Section 2.1).
func TestEnergyPreservation(t *testing.T) {
	r := zipf.NewRNG(3)
	for _, u := range []int64{2, 16, 128, 2048} {
		v := make([]float64, u)
		for i := range v {
			v[i] = r.NormFloat64() * 10
		}
		w := Transform(v)
		if !almostEq(Energy(v), Energy(w), 1e-9) {
			t.Errorf("u=%d energy %v != %v", u, Energy(v), Energy(w))
		}
	}
}

func TestTransformLinearity(t *testing.T) {
	r := zipf.NewRNG(4)
	const u = 64
	a := make([]float64, u)
	b := make([]float64, u)
	for i := range a {
		a[i], b[i] = r.Float64(), r.Float64()
	}
	wa, wb := Transform(a), Transform(b)
	sum := make([]float64, u)
	for i := range sum {
		sum[i] = 2*a[i] - 3*b[i]
	}
	ws := Transform(sum)
	for i := range ws {
		if !almostEq(ws[i], 2*wa[i]-3*wb[i], 1e-9) {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestTransformPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Transform(make([]float64, 5))
}

func TestLog2(t *testing.T) {
	cases := map[int64]uint{1: 0, 2: 1, 4: 2, 1024: 10, 1 << 29: 29}
	for u, want := range cases {
		if got := Log2(u); got != want {
			t.Errorf("Log2(%d) = %d, want %d", u, got, want)
		}
	}
	if IsPowerOfTwo(0) || IsPowerOfTwo(3) || IsPowerOfTwo(-4) {
		t.Error("IsPowerOfTwo misclassifies")
	}
	if !IsPowerOfTwo(1) || !IsPowerOfTwo(1<<30) {
		t.Error("IsPowerOfTwo misclassifies powers")
	}
}

// TestCoefLevelMatchesLoop pins coefLevel's bits.Len64 form to the loop it
// replaced — with an unsigned shift, so the reference also terminates for
// i ≥ 2^62, where the old signed loop never did.
func TestCoefLevelMatchesLoop(t *testing.T) {
	loop := func(i int64) uint {
		var j uint
		for uint64(1)<<(j+1) <= uint64(i) {
			j++
		}
		return j
	}
	check := func(i int64) {
		if got, want := coefLevel(i), loop(i); got != want {
			t.Fatalf("coefLevel(%d) = %d, loop %d", i, got, want)
		}
	}
	for i := int64(1); i < 1<<16; i++ {
		check(i)
	}
	for j := 0; j < 63; j++ {
		for _, i := range []int64{1<<j - 1, 1 << j, 1<<j + 1} {
			if i >= 1 {
				check(i)
			}
		}
	}
}

func TestBasisOrthonormality(t *testing.T) {
	const u = 32
	for i := int64(0); i < u; i++ {
		for j := i; j < u; j++ {
			var dot float64
			for x := int64(0); x < u; x++ {
				dot += BasisAt(i, x, u) * BasisAt(j, x, u)
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if !almostEq(dot, want, 1e-9) {
				t.Errorf("<psi_%d, psi_%d> = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestSparseTransformMatchesDense(t *testing.T) {
	r := zipf.NewRNG(5)
	for _, u := range []int64{4, 16, 256, 4096} {
		freq := make(map[int64]float64)
		dense := make([]float64, u)
		// Sparse signal: ~u/8 non-zeros.
		for c := int64(0); c < u/8+1; c++ {
			x := r.Int63n(u)
			val := math.Floor(r.Float64()*50) + 1
			freq[x] += val
			dense[x] += val
		}
		wDense := Transform(dense)
		wSparse := SparseTransform(freq, u)
		for i := int64(0); i < u; i++ {
			if !almostEq(wDense[i], wSparse[i], 1e-9) {
				t.Fatalf("u=%d coef %d: dense %v sparse %v", u, i, wDense[i], wSparse[i])
			}
		}
		// No spurious non-zeros.
		for i, v := range wSparse {
			if math.Abs(v) > 1e-12 && math.Abs(wDense[i]) < 1e-12 {
				t.Fatalf("u=%d spurious sparse coef %d = %v", u, i, v)
			}
		}
	}
}

func TestStreamingTransformerMatchesSparse(t *testing.T) {
	r := zipf.NewRNG(6)
	for _, u := range []int64{4, 64, 1024} {
		freq := make(map[int64]float64)
		for c := int64(0); c < u/4+1; c++ {
			freq[r.Int63n(u)] += float64(1 + r.Int63n(9))
		}
		keys, counts := SortFreq(freq)
		got := SparseTransformSorted(keys, counts, u)
		want := SparseTransform(freq, u)
		// Compare as maps with tolerance: summation order differs between
		// the two algorithms, so a mathematically-zero coefficient can be
		// exactly 0 in one and ~1e-17 in the other.
		gotMap := make(map[int64]float64, len(got))
		for _, c := range got {
			gotMap[c.Index] = c.Value
		}
		union := make(map[int64]bool)
		for i := range gotMap {
			union[i] = true
		}
		for i := range want {
			union[i] = true
		}
		for i := range union {
			if !almostEq(gotMap[i], want[i], 1e-9) {
				t.Fatalf("u=%d coef %d: streaming %v, sparse %v", u, i, gotMap[i], want[i])
			}
		}
	}
}

func TestStreamingTransformerRejectsUnsorted(t *testing.T) {
	tr := NewStreamingTransformer(8, func(Coef) {})
	tr.Feed(3, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-increasing key")
		}
	}()
	tr.Feed(3, 1)
}

func TestStreamingTransformerEmpty(t *testing.T) {
	n := 0
	tr := NewStreamingTransformer(8, func(Coef) { n++ })
	tr.Close()
	if n != 0 {
		t.Errorf("empty stream emitted %d coefficients", n)
	}
}

// Property: for random sparse inputs, streaming == map == dense.
func TestSparseQuick(t *testing.T) {
	f := func(raw []uint16, sizeSel uint8) bool {
		u := int64(1) << (3 + sizeSel%8) // 8..1024
		freq := make(map[int64]float64)
		dense := make([]float64, u)
		for i, rv := range raw {
			x := int64(rv) % u
			val := float64(i%7 + 1)
			freq[x] += val
			dense[x] += val
		}
		wDense := Transform(dense)
		wSparse := SparseTransform(freq, u)
		for i := int64(0); i < u; i++ {
			if !almostEq(wDense[i], wSparse[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectTopK(t *testing.T) {
	coefs := []Coef{
		{Index: 1, Value: -10},
		{Index: 2, Value: 3},
		{Index: 3, Value: 7},
		{Index: 4, Value: -2},
		{Index: 5, Value: 8},
	}
	top := SelectTopK(coefs, 3)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Index != 1 || top[0].Value != -10 {
		t.Errorf("top[0] = %+v, want index 1 value -10", top[0])
	}
	if top[1].Index != 5 || top[2].Index != 3 {
		t.Errorf("order = %+v", top)
	}
}

// selectTopKCoefs is the benchmark's input: n coefficients with distinct
// indexes, heavy ties (magnitudes drawn from 1 000 values) and both signs.
func selectTopKCoefs(n int) []Coef {
	r := zipf.NewRNG(11)
	coefs := make([]Coef, n)
	for i := range coefs {
		v := float64(r.Int63n(1000))
		if r.Int63n(2) == 0 {
			v = -v
		}
		coefs[i] = Coef{Index: int64(n - i), Value: v}
	}
	return coefs
}

// TestSelectTopKMatchesFullSort pins the selection to its definition —
// sort everything by (|value| desc, index asc), keep k — with ties
// straddling the admission boundary and signs that must survive.
func TestSelectTopKMatchesFullSort(t *testing.T) {
	coefs := selectTopKCoefs(5000)
	want := append([]Coef(nil), coefs...)
	SortCoefsByMagnitude(want)
	for _, k := range []int{0, 1, 30, 999, 5000, 6000} {
		got := SelectTopK(coefs, k)
		if len(got) != min(k, len(coefs)) {
			t.Fatalf("k=%d: %d coefficients", k, len(got))
		}
		for i := range got {
			if got[i] != want[i] || math.Signbit(got[i].Value) != math.Signbit(want[i].Value) {
				t.Fatalf("k=%d: [%d] = %+v, want %+v", k, i, got[i], want[i])
			}
		}
	}
}

var sinkCoefs []Coef

// BenchmarkSelectTopK is the reducer's selection at the size a one-round
// build hands it: 65 536 coefficients, k = 30.
func BenchmarkSelectTopK(b *testing.B) {
	coefs := selectTopKCoefs(65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCoefs = SelectTopK(coefs, 30)
	}
}

func TestSelectTopKDenseMatchesMap(t *testing.T) {
	r := zipf.NewRNG(7)
	w := make([]float64, 256)
	m := make(map[int64]float64)
	for i := range w {
		if r.Float64() < 0.5 {
			w[i] = r.NormFloat64()
			m[int64(i)] = w[i]
		}
	}
	a := SelectTopKDense(w, 10)
	b := SelectTopKMap(m, 10)
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("mismatch at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestReconstructAllCoefficientsExact(t *testing.T) {
	r := zipf.NewRNG(8)
	const u = 128
	v := make([]float64, u)
	for i := range v {
		v[i] = math.Floor(r.Float64() * 30)
	}
	w := Transform(v)
	coefs := make([]Coef, 0, u)
	for i, val := range w {
		if val != 0 {
			coefs = append(coefs, Coef{Index: int64(i), Value: val})
		}
	}
	rep := NewRepresentation(u, coefs)
	got := rep.Reconstruct()
	for i := range v {
		if !almostEq(v[i], got[i], 1e-8) {
			t.Fatalf("full reconstruction differs at %d: %v vs %v", i, got[i], v[i])
		}
	}
}

// Keeping the true top-k minimizes SSE, and SSE equals residual energy.
func TestTopKSSEEqualsResidualEnergy(t *testing.T) {
	r := zipf.NewRNG(9)
	const u = 256
	v := make([]float64, u)
	for i := range v {
		v[i] = r.NormFloat64() * 5
	}
	w := Transform(v)
	for _, k := range []int{1, 5, 20, 100} {
		rep := NewRepresentation(u, SelectTopKDense(w, k))
		sse := rep.SSEAgainst(v)
		ideal := IdealSSE(w, k)
		if !almostEq(sse, ideal, 1e-8) {
			t.Errorf("k=%d SSE %v != residual energy %v", k, sse, ideal)
		}
	}
}

func TestSSEDecreasesWithK(t *testing.T) {
	r := zipf.NewRNG(10)
	const u = 512
	v := make([]float64, u)
	for i := range v {
		v[i] = r.Float64() * 100
	}
	w := Transform(v)
	prev := math.Inf(1)
	for _, k := range []int{5, 10, 20, 40, 80} {
		sse := IdealSSE(w, k)
		if sse > prev+1e-9 {
			t.Errorf("SSE increased with k: k=%d sse=%v prev=%v", k, sse, prev)
		}
		prev = sse
	}
}

func TestPointEstimateMatchesReconstruct(t *testing.T) {
	r := zipf.NewRNG(11)
	const u = 64
	v := make([]float64, u)
	for i := range v {
		v[i] = r.Float64() * 10
	}
	rep := NewRepresentation(u, SelectTopKDense(Transform(v), 8))
	dense := rep.Reconstruct()
	for x := int64(0); x < u; x++ {
		if !almostEq(dense[x], rep.PointEstimate(x), 1e-9) {
			t.Fatalf("point estimate differs at %d", x)
		}
	}
}

func TestRangeSumMatchesReconstruct(t *testing.T) {
	r := zipf.NewRNG(12)
	const u = 128
	v := make([]float64, u)
	for i := range v {
		v[i] = math.Floor(r.Float64() * 9)
	}
	rep := NewRepresentation(u, SelectTopKDense(Transform(v), 16))
	dense := rep.Reconstruct()
	for trial := 0; trial < 200; trial++ {
		lo := r.Int63n(u)
		hi := lo + r.Int63n(u-lo)
		var want float64
		for x := lo; x <= hi; x++ {
			want += dense[x]
		}
		got := rep.RangeSum(lo, hi)
		if !almostEq(got, want, 1e-8) {
			t.Fatalf("RangeSum(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
}

func TestRangeSumClamps(t *testing.T) {
	rep := NewRepresentation(8, []Coef{{Index: 0, Value: math.Sqrt(8)}}) // v = all ones
	if got := rep.RangeSum(-5, 100); !almostEq(got, 8, 1e-9) {
		t.Errorf("clamped full-range sum = %v, want 8", got)
	}
	if got := rep.RangeSum(5, 2); got != 0 {
		t.Errorf("inverted range = %v, want 0", got)
	}
}

func TestRangeSumFullEqualsTotal(t *testing.T) {
	r := zipf.NewRNG(13)
	const u = 64
	v := make([]float64, u)
	var total float64
	for i := range v {
		v[i] = math.Floor(r.Float64() * 5)
		total += v[i]
	}
	// All coefficients retained: range sum must be exact.
	w := Transform(v)
	coefs := make([]Coef, 0)
	for i, val := range w {
		coefs = append(coefs, Coef{Index: int64(i), Value: val})
	}
	rep := NewRepresentation(u, coefs)
	if got := rep.RangeSum(0, u-1); !almostEq(got, total, 1e-8) {
		t.Errorf("full range = %v, want %v", got, total)
	}
}
