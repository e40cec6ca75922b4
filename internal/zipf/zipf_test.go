package zipf

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGDistinctSeeds(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from distinct seeds collide %d/64 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGInt63nRange(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Int63n(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Int63n(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("bucket %d count %d, want ~10000", i, c)
		}
	}
}

// int63nTwoDivisions is Int63n as first written: the rejection limit
// computed on every draw.
func int63nTwoDivisions(r *RNG, n int64) int64 {
	maxv := uint64(n)
	limit := (1 << 63) - (1<<63)%maxv
	for {
		v := r.Uint64() >> 1
		if v < limit {
			return int64(v % maxv)
		}
	}
}

// TestInt63nMatchesTwoDivisions: Int63n's early accept changes no value
// and no accept decision, so two streams drawing the same bounds stay in
// lockstep, including at bounds where most draws take the slow path.
func TestInt63nMatchesTwoDivisions(t *testing.T) {
	bounds := []int64{1, 2, 3, 1<<62 + 1, math.MaxInt64, 4096, 16384, 65536, 1 << 20, 3<<40 + 7}
	for seed := uint64(0); seed < 64; seed++ {
		got, want := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 200; i++ {
			n := bounds[(int(seed)+i)%len(bounds)]
			if g, w := got.Int63n(n), int63nTwoDivisions(want, n); g != w {
				t.Fatalf("seed %d draw %d: Int63n(%d) = %d, two-division form %d", seed, i, n, g, w)
			}
		}
		if got.s != want.s {
			t.Fatalf("seed %d: streams diverged after the draws", seed)
		}
	}
}

func TestRNGFork(t *testing.T) {
	base := NewRNG(5)
	a := base.Fork(1)
	b := base.Fork(2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Error("forked streams look identical")
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGBernoulliEdges(t *testing.T) {
	r := NewRNG(11)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) = true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) = false")
	}
	hits := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", got)
	}
}

func TestZipfRange(t *testing.T) {
	for _, alpha := range []float64{0.8, 1.0, 1.1, 1.4} {
		z := NewZipf(1000, alpha)
		r := NewRNG(1)
		for i := 0; i < 20000; i++ {
			x := z.Sample(r)
			if x < 1 || x > 1000 {
				t.Fatalf("alpha=%v sample %d out of [1,1000]", alpha, x)
			}
		}
	}
}

// Empirical frequencies must match the exact PMF for every tested alpha,
// including alpha <= 1 where math/rand's Zipf is unusable.
func TestZipfMatchesPMF(t *testing.T) {
	const n = 64
	const samples = 400000
	for _, alpha := range []float64{0.8, 1.0, 1.1, 1.4, 2.0} {
		z := NewZipf(n, alpha)
		r := NewRNG(99)
		counts := make([]int, n+1)
		for i := 0; i < samples; i++ {
			counts[z.Sample(r)]++
		}
		for x := int64(1); x <= n; x++ {
			want := z.PMF(x)
			got := float64(counts[x]) / samples
			// 5-sigma binomial tolerance plus small absolute slack.
			tol := 5*math.Sqrt(want*(1-want)/samples) + 1e-4
			if math.Abs(got-want) > tol {
				t.Errorf("alpha=%v x=%d: freq %v, pmf %v (tol %v)",
					alpha, x, got, want, tol)
			}
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher alpha concentrates more mass on rank 1.
	r := NewRNG(4)
	mass := func(alpha float64) float64 {
		z := NewZipf(1<<16, alpha)
		ones := 0
		for i := 0; i < 50000; i++ {
			if z.Sample(r) == 1 {
				ones++
			}
		}
		return float64(ones)
	}
	m08, m11, m14 := mass(0.8), mass(1.1), mass(1.4)
	if !(m08 < m11 && m11 < m14) {
		t.Errorf("rank-1 mass not increasing with alpha: %v %v %v", m08, m11, m14)
	}
}

func TestZipfPMFSumsToOne(t *testing.T) {
	z := NewZipf(500, 1.1)
	var sum float64
	for x := int64(1); x <= 500; x++ {
		sum += z.PMF(x)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("PMF sums to %v", sum)
	}
}

func TestZipfPanics(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { NewZipf(0, 1) })
	mustPanic(func() { NewZipf(10, 0) })
	mustPanic(func() { NewRNG(0).Int63n(0) })
}

func TestPermIsBijection(t *testing.T) {
	for _, n := range []int64{1, 2, 3, 100, 1000, 4096, 5000} {
		p := NewPerm(n, 77)
		seen := make(map[int64]bool, n)
		for x := int64(0); x < n; x++ {
			y := p.Apply(x)
			if y < 0 || y >= n {
				t.Fatalf("n=%d Apply(%d)=%d out of range", n, x, y)
			}
			if seen[y] {
				t.Fatalf("n=%d collision at image %d", n, y)
			}
			seen[y] = true
			if back := p.Invert(y); back != x {
				t.Fatalf("n=%d Invert(Apply(%d)) = %d", n, x, back)
			}
		}
	}
}

func TestPermSeedChangesMapping(t *testing.T) {
	p1 := NewPerm(1024, 1)
	p2 := NewPerm(1024, 2)
	same := 0
	for x := int64(0); x < 1024; x++ {
		if p1.Apply(x) == p2.Apply(x) {
			same++
		}
	}
	if same > 30 {
		t.Errorf("different seeds agree on %d/1024 points", same)
	}
}

func TestPermQuickRoundTrip(t *testing.T) {
	p := NewPerm(1<<20, 123)
	f := func(raw uint32) bool {
		x := int64(raw) % (1 << 20)
		return p.Invert(p.Apply(x)) == x
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPermOutOfRangePanics(t *testing.T) {
	p := NewPerm(10, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range input")
		}
	}()
	p.Apply(10)
}

func BenchmarkZipfSample(b *testing.B) {
	z := NewZipf(1<<29, 1.1)
	r := NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Sample(r)
	}
}

func BenchmarkPermApply(b *testing.B) {
	p := NewPerm(1<<29, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Apply(int64(i) & ((1 << 29) - 1))
	}
}
