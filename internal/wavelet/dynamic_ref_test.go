package wavelet

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"wavelethist/internal/zipf"
)

// refMaintainer is the maintainer's semantics with none of its machinery:
// one map of tracked values, every path coefficient adopted, a full sort
// at compaction, and reads through SelectTopKMap. Maintainer must track
// exactly this set, value for value, and retain exactly its top k.
type refMaintainer struct {
	u         int64
	k, shadow int
	coefs     map[int64]float64
}

func newRefMaintainer(u int64, initial []Coef, k, shadow int) *refMaintainer {
	if shadow <= 0 {
		shadow = 4 * k
	}
	r := &refMaintainer{u: u, k: k, shadow: shadow, coefs: map[int64]float64{}}
	for _, c := range SelectTopK(initial, k+shadow) {
		if c.Value != 0 {
			r.coefs[c.Index] = c.Value
		}
	}
	return r
}

func (r *refMaintainer) update(x int64, delta float64) {
	if delta == 0 {
		return
	}
	r.apply(0, delta/math.Sqrt(float64(r.u)))
	for j := uint(0); int64(1)<<j < r.u; j++ {
		rangeLen := r.u >> j
		k := x / rangeLen
		c := delta / math.Sqrt(float64(rangeLen))
		if x-k*rangeLen < rangeLen/2 {
			c = -c
		}
		r.apply(int64(1)<<j+k, c)
	}
	if len(r.coefs) > 2*(r.k+r.shadow) {
		for _, c := range SelectTopKMap(r.coefs, len(r.coefs))[r.k+r.shadow:] {
			delete(r.coefs, c.Index)
		}
	}
}

func (r *refMaintainer) apply(idx int64, c float64) {
	if nv := r.coefs[idx] + c; nv == 0 {
		delete(r.coefs, idx)
	} else {
		r.coefs[idx] = nv
	}
}

func (r *refMaintainer) retained() []Coef { return SelectTopKMap(r.coefs, r.k) }

// byIndex returns a copy of cs sorted by coefficient index.
func byIndex(cs []Coef) []Coef {
	out := slices.Clone(cs)
	slices.SortFunc(out, func(a, b Coef) int { return cmp.Compare(a.Index, b.Index) })
	return out
}

// sameCoefs reports whether a and b hold the same (index, value bits)
// pairs in the same order.
func sameCoefs(a, b []Coef) bool {
	return slices.EqualFunc(a, b, func(x, y Coef) bool {
		return x.Index == y.Index && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	})
}

// checkAgainstRef compares a maintainer with the reference: tracked sets
// equal bit for bit, the representation equal to the reference's top k as
// an index-sorted set, and its indexed point estimates equal, bit for bit,
// to a scan of the reference's values in the snapshot's own slot order
// (slot order is rebuild-versus-patch history, which the reference does
// not model).
func checkAgainstRef(t *testing.T, step int, m *Maintainer, ref *refMaintainer, r *zipf.RNG) {
	t.Helper()
	got := byIndex(m.TrackedCoefs())
	want := make([]Coef, 0, len(ref.coefs))
	for idx, v := range ref.coefs {
		want = append(want, Coef{Index: idx, Value: v})
	}
	if want = byIndex(want); !sameCoefs(got, want) {
		t.Fatalf("step %d: tracked %d coefficients, reference %d, or values differ", step, len(got), len(want))
	}
	rep := m.Representation()
	if !sameCoefs(byIndex(rep.Coefs), byIndex(ref.retained())) {
		t.Fatalf("step %d: retained set differs from the reference's top %d", step, ref.k)
	}
	for i := 0; i < 8; i++ {
		x := r.Int63n(m.Domain())
		var scan float64
		for _, c := range rep.Coefs {
			scan += ref.coefs[c.Index] * BasisAt(c.Index, x, m.Domain())
		}
		if g := rep.PointEstimate(x); math.Float64bits(g) != math.Float64bits(scan) {
			t.Fatalf("step %d: PointEstimate(%d) = %v, reference scan %v", step, x, g, scan)
		}
	}
}

// FuzzMaintainerMatchesReference drives Maintainer and refMaintainer with
// one stream: fuzzed domain, k and shadow, a seeded initial set, unit
// deltas (so coefficients cancel to exact zero), a hot key set for
// repeated keys, and a TrackedCoefs → RestoreMaintainer round trip half
// way, after which the first snapshot must equal NewRepresentation over
// the reference's top k slot for slot.
func FuzzMaintainerMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(4), uint8(0), uint16(600), uint8(40), uint8(7))
	f.Add(uint64(2), uint8(12), uint8(24), uint8(64), uint16(1500), uint8(20), uint8(61))
	f.Add(uint64(3), uint8(14), uint8(8), uint8(16), uint16(2000), uint8(0), uint8(97))
	f.Add(uint64(4), uint8(0), uint8(1), uint8(1), uint16(50), uint8(50), uint8(3))
	f.Add(uint64(5), uint8(3), uint8(2), uint8(3), uint16(400), uint8(90), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, logu, k, shadow uint8, steps uint16, hotPct, every uint8) {
		u := int64(1) << (logu % 15)
		kk, sh := 1+int(k%64), int(shadow%65)
		n, snapEvery := int(steps%2500), 1+int(every%128)
		r := zipf.NewRNG(seed)
		var initial []Coef // distinct indexes, as a build produces
		seen := map[int64]bool{}
		for i := r.Int63n(3 * int64(kk)); i > 0; i-- {
			if idx := r.Int63n(u); !seen[idx] {
				seen[idx] = true
				initial = append(initial, Coef{Index: idx, Value: float64(r.Int63n(41) - 20)})
			}
		}
		m, ref := NewMaintainer(u, initial, kk, sh), newRefMaintainer(u, initial, kk, sh)
		hot := []int64{r.Int63n(u), r.Int63n(u), r.Int63n(u)}
		for step := 0; step < n; step++ {
			x := r.Int63n(u)
			if r.Int63n(100) < int64(hotPct%101) {
				x = hot[r.Int63n(3)]
			}
			delta := float64(1 + r.Int63n(2))
			if r.Bernoulli(0.45) {
				delta = -delta
			}
			m.Update(x, delta)
			ref.update(x, delta)
			if step == n/2 {
				m = RestoreMaintainer(u, m.TrackedCoefs(), kk, sh)
				want := NewRepresentation(u, ref.retained())
				if got := m.Representation(); !sameCoefs(got.Coefs, want.Coefs) {
					t.Fatalf("step %d: restored snapshot differs from NewRepresentation of the reference", step)
				}
				for i := 0; i < 8; i++ {
					x := r.Int63n(u)
					if g, w := m.Representation().PointEstimate(x), want.PointEstimate(x); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("step %d: restored PointEstimate(%d) = %v, reference %v", step, x, g, w)
					}
				}
			}
			if step%snapEvery == 0 {
				checkAgainstRef(t, step, m, ref, r)
			}
		}
		checkAgainstRef(t, n, m, ref, r)
	})
}

// goldenMaintainerDigest is TestMaintainerGoldenDigest's value, captured
// on the commit before the maintainer's partition was rewritten.
const goldenMaintainerDigest = "3835eeb7a487f29d8e0032fb7005ea585725f64f5c64776613a97185fa135f3b"

// TestMaintainerGoldenDigest pins the maintainer's observable output on a
// fixed stream shaped like the benchmark's serve_mixed: u = 2^20, k = 2048,
// default shadow, seeded from a skewed top-k, uniform keys three inserts
// to one delete, a snapshot every 256 updates — then a hot-key phase with
// a snapshot every 64 updates, which reads take through the patch path.
// The digest covers every snapshot's Coefs in slice order (the error
// tree's summation order, so the bits of every estimate) and the final
// tracked set sorted by index. The benchmark's replay oracle runs the same
// Maintainer on both sides and cannot see a changed slot order; this can.
func TestMaintainerGoldenDigest(t *testing.T) {
	const u, k = 1 << 20, 2048
	r := zipf.NewRNG(7)
	// A skewed seed build from integer arithmetic only: log-uniform ranks
	// scattered over the domain by an odd multiplier.
	counts := map[int64]float64{}
	for i := 0; i < 1<<16; i++ {
		rank := r.Int63n(int64(1) << r.Int63n(21))
		counts[(rank*0x9E3779B1)&(u-1)]++
	}
	keys, vals := SortFreq(counts)
	m := NewMaintainer(u, SelectTopK(SparseTransformSorted(keys, vals, u), k), k, 0)

	h := sha256.New()
	var buf [16]byte
	hashCoefs := func(cs []Coef) {
		for _, c := range cs {
			binary.LittleEndian.PutUint64(buf[:8], uint64(c.Index))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(c.Value))
			h.Write(buf[:])
		}
	}
	for i := 1; i <= 40960; i++ {
		delta := 1.0
		if r.Int63n(4) == 0 {
			delta = -1
		}
		m.Update(r.Int63n(u), delta)
		if i%256 == 0 {
			hashCoefs(m.Representation().Coefs)
		}
	}
	hot := []int64{r.Int63n(u), r.Int63n(u), r.Int63n(u), r.Int63n(u)}
	for i := 1; i <= 8192; i++ {
		delta := 1.0
		if r.Int63n(4) == 0 {
			delta = -1
		}
		m.Update(hot[r.Int63n(4)], delta)
		if i%64 == 0 {
			hashCoefs(m.Representation().Coefs)
		}
	}
	hashCoefs(byIndex(m.TrackedCoefs()))
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenMaintainerDigest {
		t.Fatalf("maintainer digest %s, want %s (tracked %d)", got, goldenMaintainerDigest, m.Tracked())
	}
}

// BenchmarkMaintainerUpdate is the serve_mixed write path without HTTP:
// u = 2^20, k = 2048, default shadow, uniform keys three inserts to one
// delete, and a Representation() every 256 updates as the server
// republishes. Reported per update.
func BenchmarkMaintainerUpdate(b *testing.B) {
	const u, k = 1 << 20, 2048
	r := zipf.NewRNG(11)
	m := NewMaintainer(u, nil, k, 0)
	keys := make([]int64, 1<<16)
	deltas := make([]float64, len(keys))
	for i := range keys {
		keys[i], deltas[i] = r.Int63n(u), 1
		if r.Int63n(4) == 0 {
			deltas[i] = -1
		}
	}
	for i := 0; i < 4*(k+4*k); i++ { // warm: past the first compactions
		m.Update(keys[i%len(keys)], deltas[i%len(keys)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		m.Update(keys[j], deltas[j])
		if i%256 == 255 {
			m.Representation()
		}
	}
}
