package wavelet

import (
	"math"
	"slices"
	"testing"

	"wavelethist/internal/zipf"
)

func fullCoefs(v []float64) []Coef {
	w := Transform(v)
	out := make([]Coef, 0, len(w))
	for i, val := range w {
		if val != 0 {
			out = append(out, Coef{Index: int64(i), Value: val})
		}
	}
	return out
}

func TestMaintainerTracksExactTopK(t *testing.T) {
	const u = 256
	const k = 10
	r := zipf.NewRNG(1)
	v := make([]float64, u)
	for i := range v {
		v[i] = math.Floor(r.Float64() * 50)
	}
	m := NewMaintainer(u, fullCoefs(v), k, 0)

	// Apply a stream of inserts/deletes, mirroring them on v.
	for step := 0; step < 3000; step++ {
		x := r.Int63n(u)
		delta := float64(1 + r.Int63n(3))
		if r.Bernoulli(0.3) && v[x] >= delta {
			delta = -delta
		}
		if v[x]+delta < 0 {
			delta = -v[x]
		}
		v[x] += delta
		m.Update(x, delta)
	}

	// Maintained coefficients must equal the exact transform on every
	// retained index.
	w := Transform(v)
	rep := m.Representation()
	if rep.K() == 0 {
		t.Fatal("empty maintained representation")
	}
	for _, c := range rep.Coefs {
		if !almostEq(c.Value, w[c.Index], 1e-8) {
			t.Errorf("maintained coef %d = %v, exact %v", c.Index, c.Value, w[c.Index])
		}
	}
	// And the maintained top-k must achieve SSE close to the ideal.
	got := rep.SSEAgainst(v)
	ideal := IdealSSE(w, k)
	if got > ideal*1.2+1e-6 {
		t.Errorf("maintained SSE %v vs ideal %v", got, ideal)
	}
}

func TestMaintainerDeletionsCancel(t *testing.T) {
	const u = 64
	m := NewMaintainer(u, nil, 5, 0)
	// Insert then fully delete: everything cancels to the empty signal.
	for i := 0; i < 100; i++ {
		m.Update(int64(i%u), 2)
	}
	for i := 0; i < 100; i++ {
		m.Update(int64(i%u), -2)
	}
	rep := m.Representation()
	for _, c := range rep.Coefs {
		if math.Abs(c.Value) > 1e-9 {
			t.Errorf("residual coefficient %d = %v after full cancellation", c.Index, c.Value)
		}
	}
}

func TestMaintainerCompactBoundsMemory(t *testing.T) {
	const u = 1 << 14
	const k = 8
	m := NewMaintainer(u, nil, k, 16)
	r := zipf.NewRNG(2)
	for i := 0; i < 20000; i++ {
		m.Update(r.Int63n(u), 1)
	}
	if m.Tracked() > 2*(k+16) {
		t.Errorf("tracked set grew to %d, bound is %d", m.Tracked(), 2*(k+16))
	}
}

func TestMaintainerHeavyShiftDetected(t *testing.T) {
	// A key absent from the initial build becomes the heaviest item; the
	// maintainer must pick its path coefficients up.
	const u = 128
	const k = 6
	r := zipf.NewRNG(3)
	v := make([]float64, u)
	for i := 0; i < 500; i++ {
		v[r.Int63n(u)]++
	}
	// Track every initial coefficient so retained values stay exact (the
	// shadow cap trades exactness for memory; see the package comment).
	initial := fullCoefs(v)
	m := NewMaintainer(u, initial, k, len(initial))
	const newHot = 77
	for i := 0; i < 5000; i++ {
		v[newHot]++
		m.Update(newHot, 1)
	}
	rep := m.Representation()
	// The leaf detail coefficient adjacent to the new hot key must now be
	// retained (it dominates the spectrum).
	w := Transform(v)
	trueTop := SelectTopKDense(w, 1)[0]
	found := false
	for _, c := range rep.Coefs {
		if c.Index == trueTop.Index {
			found = true
			if !almostEq(c.Value, trueTop.Value, 1e-8) {
				t.Errorf("hot coefficient %d = %v, exact %v", c.Index, c.Value, trueTop.Value)
			}
		}
	}
	if !found {
		t.Errorf("dominant coefficient %d not retained after shift", trueTop.Index)
	}
}

func TestMaintainerPanics(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	mustPanic(func() { NewMaintainer(100, nil, 5, 0) })
	mustPanic(func() { NewMaintainer(128, nil, 0, 0) })
	m := NewMaintainer(128, nil, 5, 0)
	mustPanic(func() { m.Update(128, 1) })
}

func TestMaintainerZeroDeltaNoop(t *testing.T) {
	m := NewMaintainer(64, nil, 3, 0)
	m.Update(5, 0)
	if m.Tracked() != 0 {
		t.Errorf("zero delta created %d tracked coefficients", m.Tracked())
	}
}

// TestMaintainerMatchesFullReselection pins the incremental partition to
// the legacy semantics: at any point in an arbitrary update stream, the
// maintained representation must be exactly what a full top-k re-selection
// over the tracked set would produce — same coefficients, same order,
// bit-identical values.
func TestMaintainerMatchesFullReselection(t *testing.T) {
	const u = 1 << 12
	const k = 24
	r := zipf.NewRNG(21)
	m := NewMaintainer(u, nil, k, 64)
	for step := 0; step < 8000; step++ {
		delta := float64(1 + r.Int63n(4))
		if r.Bernoulli(0.4) {
			delta = -delta
		}
		m.Update(r.Int63n(u), delta)
		if step%613 != 0 {
			continue
		}
		got := m.Representation()
		tracked := make(map[int64]float64, m.Tracked())
		for _, c := range m.TrackedCoefs() {
			tracked[c.Index] = c.Value
		}
		want := NewRepresentation(u, SelectTopKMap(tracked, k))
		if len(got.Coefs) != len(want.Coefs) {
			t.Fatalf("step %d: incremental kept %d coefs, reselection %d", step, len(got.Coefs), len(want.Coefs))
		}
		for i := range want.Coefs {
			g, w := got.Coefs[i], want.Coefs[i]
			if g.Index != w.Index || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
				t.Fatalf("step %d slot %d: incremental (%d, %x), reselection (%d, %x)",
					step, i, g.Index, math.Float64bits(g.Value), w.Index, math.Float64bits(w.Value))
			}
		}
	}
}

// TestMaintainerSnapshotsImmutable: a handed-out representation must never
// change, even as updates keep patching the maintainer's internal state —
// registry snapshots may hold it forever.
func TestMaintainerSnapshotsImmutable(t *testing.T) {
	const u = 1 << 10
	r := zipf.NewRNG(22)
	m := NewMaintainer(u, nil, 16, 64)
	for i := 0; i < 2000; i++ {
		m.Update(r.Int63n(u), 1)
	}
	rep1 := m.Representation()
	frozen := make([]Coef, len(rep1.Coefs))
	copy(frozen, rep1.Coefs)
	est1 := rep1.PointEstimate(123)
	pieces1 := rep1.pieces
	for i := 0; i < 2000; i++ {
		m.Update(r.Int63n(u), 2)
		if i%100 == 0 {
			m.Representation()
		}
	}
	for i, c := range rep1.Coefs {
		if c != frozen[i] {
			t.Fatalf("snapshot coefficient %d mutated: %+v -> %+v", i, frozen[i], c)
		}
	}
	if got := rep1.PointEstimate(123); math.Float64bits(got) != math.Float64bits(est1) {
		t.Fatalf("snapshot estimate drifted: %v -> %v", est1, got)
	}
	// The old snapshot still answers from its own piece table.
	if rep1.pieces != pieces1 {
		t.Fatal("snapshot's piece table was replaced")
	}
	requireMatchesScan(t, "old snapshot", rep1, r)
	rep2 := m.Representation()
	if rep2 == rep1 {
		t.Fatal("maintainer returned a stale snapshot after updates")
	}
}

// requireMatchesScan checks every point of rep's domain, two off-domain
// points on each side, and random, inverted, clamped and full-domain
// ranges against the linear scan, bit for bit.
func requireMatchesScan(t *testing.T, what string, rep *Representation, r *zipf.RNG) {
	t.Helper()
	u := rep.U
	for x := int64(-2); x < u+2; x++ {
		if g, w := rep.PointEstimate(x), rep.ScanPointEstimate(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: PointEstimate(%d) = %v, scan %v", what, x, g, w)
		}
	}
	ranges := [][2]int64{{0, u - 1}, {-3, u + 3}, {u - 1, 0}, {math.MinInt64, math.MaxInt64}}
	for i := 0; i < 200; i++ {
		ranges = append(ranges, [2]int64{r.Int63n(u+6) - 3, r.Int63n(u+6) - 3})
	}
	for _, b := range ranges {
		if g, w := rep.RangeSum(b[0], b[1]), rep.ScanRangeSum(b[0], b[1]); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: RangeSum(%d, %d) = %v, scan %v", what, b[0], b[1], g, w)
		}
	}
}

// TestMaintainerSnapshotsSharePieceTable: a value-patched snapshot reuses
// the previous snapshot's piece table (the same pointer) and still
// matches the scan to the bit; a retained-membership change builds a new
// table; and every older snapshot keeps answering from its own. No
// snapshot stores per-piece estimates: a patched one would share them
// with a snapshot whose values differ.
func TestMaintainerSnapshotsSharePieceTable(t *testing.T) {
	const u = 1 << 10
	r := zipf.NewRNG(25)
	m := NewMaintainer(u, nil, 16, 64)
	for i := 0; i < 2000; i++ {
		m.Update(r.Int63n(u), 1)
	}
	const hot = 700
	m.Update(hot, 1000) // hot's path coefficients dominate the retained set
	rep1 := m.Representation()

	m.Update(hot, 1)
	if m.memberDirty {
		t.Fatal("a small update to the dominant key changed retained membership")
	}
	rep2 := m.Representation()
	if rep2 == rep1 || rep2.pieces != rep1.pieces {
		t.Fatalf("value-patched snapshot: rep %p -> %p, table %p -> %p; want a new rep sharing the table",
			rep1, rep2, rep1.pieces, rep2.pieces)
	}
	if slices.Equal(rep1.Coefs, rep2.Coefs) {
		t.Fatal("the update moved no retained value")
	}
	requireMatchesScan(t, "patched snapshot", rep2, r)

	m.Update(40, 5000) // a new key far from hot: its leaf coefficients enter
	if !m.memberDirty {
		t.Fatal("a dominant new key left retained membership unchanged")
	}
	rep3 := m.Representation()
	if rep3.pieces == rep2.pieces {
		t.Fatal("membership change reused the old piece table")
	}
	requireMatchesScan(t, "rebuilt snapshot", rep3, r)
	requireMatchesScan(t, "first snapshot", rep1, r)
	requireMatchesScan(t, "patched snapshot after rebuild", rep2, r)
	for i, rep := range []*Representation{rep1, rep2, rep3} {
		if rep.est != nil {
			t.Fatalf("snapshot %d stores %d estimates", i+1, len(rep.est))
		}
	}
}

// TestMaintainerPatchedSnapshotEquivalence: copy-and-patch snapshots share
// the previous snapshot's piece table; their indexed estimates must
// stay bit-identical to the linear scan through arbitrary interleavings.
func TestMaintainerPatchedSnapshotEquivalence(t *testing.T) {
	const u = 1 << 14
	r := zipf.NewRNG(23)
	m := NewMaintainer(u, nil, 32, 128)
	for i := 0; i < 6000; i++ {
		m.Update(r.Int63n(u), float64(1+r.Int63n(3)))
		if i%37 != 0 {
			continue
		}
		rep := m.Representation()
		for j := 0; j < 10; j++ {
			x := r.Int63n(u)
			if g, w := rep.PointEstimate(x), rep.ScanPointEstimate(x); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("patched snapshot PointEstimate(%d) = %v, scan %v", x, g, w)
			}
			lo, hi := r.Int63n(u), r.Int63n(u)
			if g, w := rep.RangeSum(lo, hi), rep.ScanRangeSum(lo, hi); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("patched snapshot RangeSum(%d, %d) = %v, scan %v", lo, hi, g, w)
			}
		}
	}
}

// TestMaintainerNoRebuildStorm is the rebuild-storm regression test: a
// workload alternating one Update with one Representation() read must not
// re-heapify (or re-allocate proportionally to) the whole tracked set per
// read. Guarded two ways: per-pair allocations stay a small constant, and
// the maintainer's own repair-op telemetry stays O(log u · log tracked)
// per update — both independent of how many coefficients are tracked.
func TestMaintainerNoRebuildStorm(t *testing.T) {
	const u = 1 << 16
	const k = 128
	const shadow = 2048
	r := zipf.NewRNG(24)
	m := NewMaintainer(u, nil, k, shadow)
	// Populate a large tracked set, then hammer one hot key so its path
	// coefficients are firmly retained and reads take the patch path.
	for i := 0; i < 4*(k+shadow); i++ {
		m.Update(r.Int63n(u), 1)
	}
	const hot = 31337
	for i := 0; i < 200; i++ {
		m.Update(hot, 5)
		m.Representation()
	}
	if got := m.Tracked(); got < k+shadow/2 {
		t.Fatalf("tracked set too small (%d) for the regression to be meaningful", got)
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.Update(hot, 5)
		m.Representation()
	})
	// The patch path costs one coefficient-array copy and one snapshot
	// struct; the old path allocated a fresh map + heap + two sorted
	// slices over all tracked coefficients on every read.
	if allocs > 8 {
		t.Errorf("update+read pair allocates %.1f objects; the tracked set is being rebuilt per read", allocs)
	}
	opsBefore := m.RepairOps()
	const pairs = 500
	for i := 0; i < pairs; i++ {
		m.Update(hot, 5)
		m.Representation()
	}
	perUpdate := float64(m.RepairOps()-opsBefore) / pairs
	logu := float64(Log2(u)) + 1
	// ~log2(k+shadow) heap moves per touched path coefficient, with slack;
	// a tracked-set re-heapify would cost >= k+shadow = 2176 moves.
	bound := logu * 24
	if perUpdate > bound {
		t.Errorf("%.1f repair ops per update (bound %.0f, tracked %d): partition repair is not incremental",
			perUpdate, bound, m.Tracked())
	}
}
