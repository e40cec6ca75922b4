package sketch

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"wavelethist/internal/wavelet"
	"wavelethist/internal/zipf"
)

func TestMulmod61(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {mersenne61 - 1, mersenne61 - 1},
		{1 << 60, 2}, {123456789, 987654321}, {mersenne61 - 1, 2},
	}
	for _, c := range cases {
		// Reference via big-ish arithmetic using float-free splitting:
		// (a*b) mod p computed with 32-bit limbs.
		want := refMulMod(c.a, c.b)
		if got := mulmod61(c.a, c.b); got != want {
			t.Errorf("mulmod61(%d,%d) = %d, want %d", c.a, c.b, got, want)
		}
	}
}

// refMulMod computes (a*b) mod 2^61-1 via 32-bit limb arithmetic.
func refMulMod(a, b uint64) uint64 {
	const p = mersenne61
	a %= p
	b %= p
	// Split b = bh·2^32 + bl.
	bh, bl := b>>32, b&0xFFFFFFFF
	// a·bh·2^32 mod p, then ·2^32 again via repeated doubling-free path:
	mulPow2 := func(x uint64, k uint) uint64 {
		for i := uint(0); i < k; i++ {
			x <<= 1
			if x >= p {
				x -= p
			}
		}
		return x
	}
	mulSmall := func(x, y uint64) uint64 { // y < 2^32
		var r uint64
		for y > 0 {
			if y&1 == 1 {
				r += x
				if r >= p {
					r -= p
				}
			}
			x <<= 1
			if x >= p {
				x -= p
			}
			y >>= 1
		}
		return r
	}
	hi := mulPow2(mulSmall(a, bh), 32)
	lo := mulSmall(a, bl)
	r := hi + lo
	if r >= p {
		r -= p
	}
	return r
}

func TestMulmodQuick(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= mersenne61
		b %= mersenne61
		return mulmod61(a, b) == refMulMod(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPolyHashUniform(t *testing.T) {
	h := newPolyHash(7)
	const buckets = 16
	counts := make([]int, buckets)
	for x := uint64(0); x < 16000; x++ {
		counts[h.bucket(x, buckets)]++
	}
	for b, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d count %d, want ~1000", b, c)
		}
	}
}

func TestPolyHashSignBalance(t *testing.T) {
	h := newPolyHash(13)
	var sum float64
	for x := uint64(0); x < 10000; x++ {
		sum += h.sign(x)
	}
	if math.Abs(sum) > 400 {
		t.Errorf("sign imbalance %v over 10000 draws", sum)
	}
}

func TestGCSLevels(t *testing.T) {
	g := NewGCS(1<<12, 8, 3, 64, 8, 1)
	// 4096 -> 512 -> 64 -> 8 groups: 4 levels.
	if g.Levels() != 4 {
		t.Errorf("levels = %d, want 4", g.Levels())
	}
	if g.UpdateCost() != 4*3 {
		t.Errorf("update cost = %d, want 12", g.UpdateCost())
	}
}

func TestGCSGroupEnergy(t *testing.T) {
	const u = 1 << 10
	g := NewGCS(u, 4, 5, 256, 8, 3)
	// Single heavy item: its ancestor groups carry all the energy.
	g.Update(777, 100)
	gid := int64(777)
	for level := 0; level < g.Levels(); level++ {
		e := g.GroupEnergy(level, gid)
		if math.Abs(e-10000) > 2000 {
			t.Errorf("level %d energy = %v, want ~10000", level, e)
		}
		gid /= 4
	}
	// A random unrelated group should carry ~0 energy.
	if e := g.GroupEnergy(0, 5); e > 2000 {
		t.Errorf("empty group energy = %v", e)
	}
}

func TestGCSTopKRecoversHeavyCoefficients(t *testing.T) {
	const u = 1 << 14
	g := NewGCS(u, 8, 5, 1024, 8, 11)
	heavy := map[int64]float64{
		3: 5000, 100: -4000, 9000: 3000, 12345: -2500, 42: 2000,
	}
	r := zipf.NewRNG(4)
	for i, v := range heavy {
		g.Update(i, v)
	}
	for i := 0; i < 2000; i++ {
		g.Update(r.Int63n(u), math.Floor(r.Float64()*4)-2)
	}
	got := g.TopK(5, 0)
	found := make(map[int64]float64)
	for _, c := range got {
		found[c.Index] = c.Value
	}
	for i, v := range heavy {
		est, ok := found[i]
		if !ok {
			t.Errorf("heavy coefficient %d not recovered (got %v)", i, got)
			continue
		}
		if math.Abs(est-v) > 0.2*math.Abs(v) {
			t.Errorf("coefficient %d estimate %v, truth %v", i, est, v)
		}
	}
}

func TestGCSLinearityAndEntryShipping(t *testing.T) {
	const u = 1 << 10
	mk := func() *GCS { return NewGCS(u, 4, 3, 128, 4, 99) }
	a, b, whole := mk(), mk(), mk()
	r := zipf.NewRNG(8)
	for i := 0; i < 300; i++ {
		x := r.Int63n(u)
		v := math.Floor(r.Float64()*20) - 10
		if i%2 == 0 {
			a.Update(x, v)
		} else {
			b.Update(x, v)
		}
		whole.Update(x, v)
	}
	// Merge via non-zero entry shipping (the MapReduce path).
	merged := mk()
	n := 0
	ship := func(idx int64, v float64) {
		if err := merged.AddEntry(idx, v); err != nil {
			t.Fatal(err)
		}
		n++
	}
	a.NonZeroEntries(ship)
	b.NonZeroEntries(ship)
	if n == 0 {
		t.Fatal("no entries shipped")
	}
	for l := range whole.levels {
		for i := range whole.levels[l].cells {
			if math.Abs(merged.levels[l].cells[i]-whole.levels[l].cells[i]) > 1e-9 {
				t.Fatalf("level %d cell %d differs", l, i)
			}
		}
	}
	// Direct Merge agrees too.
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for l := range whole.levels {
		for i := range whole.levels[l].cells {
			if math.Abs(a.levels[l].cells[i]-whole.levels[l].cells[i]) > 1e-9 {
				t.Fatalf("Merge: level %d cell %d differs", l, i)
			}
		}
	}
}

// TestGCSAddEntryOutside: an entry NonZeroEntries cannot produce (a
// corrupt shipped pair) is an error and changes no cell.
func TestGCSAddEntryOutside(t *testing.T) {
	g := NewGCS(1<<10, 4, 3, 128, 4, 99)
	last := len(g.levels) - 1
	cells := int64(len(g.levels[last].cells))
	for _, idx := range []int64{-1, cells, int64(last)<<40 + cells, int64(last+1) << 40, math.MaxInt64} {
		if err := g.AddEntry(idx, 1); err == nil {
			t.Errorf("AddEntry(%d) accepted", idx)
		}
	}
	for l := range g.levels {
		for i, v := range g.levels[l].cells {
			if v != 0 {
				t.Fatalf("level %d cell %d = %v after refused entries", l, i, v)
			}
		}
	}
	if err := g.AddEntry(int64(last)<<40+cells-1, 1); err != nil {
		t.Errorf("last cell refused: %v", err)
	}
}

func TestGCSMergeIncompatible(t *testing.T) {
	a := NewGCS(1<<10, 4, 3, 64, 4, 1)
	b := NewGCS(1<<10, 4, 3, 64, 4, 2)
	if err := a.Merge(b); err == nil {
		t.Error("expected incompatible-seed error")
	}
}

func TestGCSWithBudget(t *testing.T) {
	const budget = 400 << 10
	g := NewGCSWithBudget(1<<20, 8, budget, 7)
	if g.Bytes() > budget*5/4 || g.Bytes() < budget/2 {
		t.Errorf("sketch bytes = %d, want ≈ %d", g.Bytes(), budget)
	}
}

// End-to-end: sketch the wavelet coefficients of a skewed frequency vector
// (what Send-Sketch's mappers do) and verify recovered top-k overlaps the
// true top-k.
func TestGCSOnWaveletCoefficients(t *testing.T) {
	const u = 1 << 12
	r := zipf.NewRNG(21)
	z := zipf.NewZipf(u, 1.1)
	v := make([]float64, u)
	for i := 0; i < 200000; i++ {
		v[z.Sample(r)-1]++
	}
	w := wavelet.Transform(v)
	g := NewGCS(u, 8, 5, 2048, 8, 77)
	for i, val := range w {
		if val != 0 {
			g.Update(int64(i), val)
		}
	}
	const k = 10
	got := g.TopK(k, 0)
	trueTop := wavelet.SelectTopKDense(w, k)
	trueSet := make(map[int64]bool)
	for _, c := range trueTop {
		trueSet[c.Index] = true
	}
	hits := 0
	for _, c := range got {
		if trueSet[c.Index] {
			hits++
		}
	}
	if hits < k*6/10 {
		t.Errorf("only %d/%d true top-k recovered", hits, k)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestGCSSortStability(t *testing.T) {
	// TopK output must be magnitude-sorted.
	g := NewGCS(1<<8, 4, 3, 64, 4, 5)
	g.Update(10, 50)
	g.Update(20, -100)
	g.Update(30, 75)
	got := g.TopK(3, 0)
	mags := make([]float64, len(got))
	for i, c := range got {
		mags[i] = math.Abs(c.Value)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(mags))) {
		t.Errorf("TopK not magnitude-sorted: %v", got)
	}
}

// BenchmarkTopKRecovery times GCS's hierarchical group search, the reason
// the paper (following Cormode et al. [13]) sketches wavelets with GCS: a
// plain AMS sketch can only recover the top-k by enumerating all u point
// estimates.
func BenchmarkTopKRecovery(b *testing.B) {
	const u = 1 << 16
	const k = 30
	r := zipf.NewRNG(31)
	z := zipf.NewZipf(u, 1.1)
	g := NewGCS(u, 8, 3, 2048, 8, 7)
	for i := 0; i < 50000; i++ {
		g.Update(z.Sample(r)-1, 1)
	}
	for i := 0; i < b.N; i++ {
		_ = g.TopK(k, 0)
	}
}

func BenchmarkGCSUpdate(b *testing.B) {
	g := NewGCS(1<<20, 8, 3, 1024, 8, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(int64(i)&((1<<20)-1), 1)
	}
}
