package wavelet

import (
	"math"
	"slices"
	"sort"
	"testing"

	"wavelethist/internal/zipf"
)

// sortOracleTransform is the emit-then-sort transform SparseTransformSorted
// replaced, kept verbatim as the bit-exact reference: a per-(key, level)
// math.Sqrt and two divisions, every level probed on every flush, output
// collected in close order and sorted by index afterwards.
func sortOracleTransform(keys []int64, counts []float64, u int64) []Coef {
	logu := Log2(u)
	path := make([]float64, logu)
	var out []Coef
	var avg float64
	curKey, any := int64(-1), false
	for i, x := range keys {
		count := counts[i]
		if x < 0 || x >= u {
			panic("wavelet: key out of domain")
		}
		if x <= curKey {
			panic("wavelet: streaming keys must be strictly increasing")
		}
		if count == 0 {
			continue
		}
		if any {
			for j := uint(0); j < logu; j++ {
				rangeLen := u >> j
				if curKey/rangeLen != x/rangeLen {
					if path[j] != 0 {
						out = append(out, Coef{Index: int64(1)<<j + curKey/rangeLen, Value: path[j]})
					}
					path[j] = 0
				}
			}
		}
		curKey, any = x, true
		avg += count / math.Sqrt(float64(u))
		for j := uint(0); j < logu; j++ {
			rangeLen := u >> j
			k := x / rangeLen
			contrib := count / math.Sqrt(float64(rangeLen))
			if x-k*rangeLen < rangeLen/2 {
				contrib = -contrib
			}
			path[j] += contrib
		}
	}
	if any {
		for j := uint(0); j < logu; j++ {
			if path[j] != 0 {
				out = append(out, Coef{Index: int64(1)<<j + curKey/(u>>j), Value: path[j]})
			}
		}
		if avg != 0 {
			out = append(out, Coef{Index: 0, Value: avg})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// assertMatchesSortOracle checks the windowed transform against the oracle
// bit for bit, and that its output is strictly index-ascending.
func assertMatchesSortOracle(t *testing.T, name string, keys []int64, counts []float64, u int64) {
	t.Helper()
	want := sortOracleTransform(keys, counts, u)
	got := SparseTransformSorted(keys, counts, u)
	if len(got) != len(want) {
		t.Fatalf("%s: %d coefficients, oracle %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: coef[%d] = %+v, oracle %+v", name, i, got[i], want[i])
		}
		if i > 0 && got[i].Index <= got[i-1].Index {
			t.Fatalf("%s: indices not strictly ascending at %d: %d after %d", name, i, got[i].Index, got[i-1].Index)
		}
	}
	// Appending to a reused buffer must leave the prefix alone and
	// produce the same coefficients.
	prefix := []Coef{{Index: -1, Value: 7}}
	app := AppendSparseTransformSorted(slices.Clone(prefix), keys, counts, u)
	if len(app) != 1+len(want) || app[0] != prefix[0] || !slices.Equal(app[1:], got) {
		t.Fatalf("%s: append form differs from the allocating form", name)
	}
}

func TestSparseTransformSortedMatchesSortOracle(t *testing.T) {
	r := zipf.NewRNG(11)
	ones := func(n int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = 1
		}
		return c
	}
	// randomKeys draws n distinct sorted keys below bound, offset by base.
	randomKeys := func(n int, base, bound int64) []int64 {
		seen := make(map[int64]bool, n)
		keys := make([]int64, 0, n)
		for len(keys) < n {
			x := base + r.Int63n(bound)
			if !seen[x] {
				seen[x] = true
				keys = append(keys, x)
			}
		}
		slices.Sort(keys)
		return keys
	}
	randomCounts := func(n int, signed, fractional bool) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = float64(1 + r.Int63n(9))
			if fractional {
				c[i] += r.Float64()
			}
			if signed && r.Int63n(2) == 0 {
				c[i] = -c[i]
			}
		}
		return c
	}

	full8 := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	cases := []struct {
		name   string
		u      int64
		keys   []int64
		counts []float64
	}{
		{"empty", 8, nil, nil},
		{"u=1", 1, []int64{0}, []float64{3}},
		{"u=2 left", 2, []int64{0}, []float64{1}},
		{"u=2 both", 2, []int64{0, 1}, []float64{2, 5}},
		{"u=2 cancel", 2, []int64{0, 1}, []float64{4, 4}}, // detail sums to exactly 0
		{"u=8 single key", 8, []int64{5}, []float64{2}},
		{"u=8 full domain", 8, full8, []float64{3, 1, 4, 1, 5, 9, 2, 6}},
		{"u=8 full uniform", 8, full8, ones(8)}, // every detail cancels: only the average survives
		{"u=8 sibling cancel", 8, []int64{2, 3, 6}, []float64{1, 1, 2}},
		{"u=8 average cancels", 8, []int64{1, 6}, []float64{2.5, -2.5}},
		{"u=8 zero counts skipped", 8, []int64{0, 2, 3, 7}, []float64{0, 1, 0, 2}},
		{"u=8 all zero counts", 8, []int64{1, 4}, []float64{0, 0}},
		{"u=2^20 single key", 1 << 20, []int64{1<<20 - 1}, []float64{1}},
		{"u=2^20 sparse", 1 << 20, randomKeys(2000, 0, 1<<20), randomCounts(2000, false, false)},
		{"u=2^20 clustered", 1 << 20, randomKeys(1500, 1<<19-700, 4096), randomCounts(1500, false, false)},
		{"u=2^20 sampled v-hat", 1 << 20, randomKeys(3000, 0, 1<<20), randomCounts(3000, true, true)},
		{"u=2^20 dense run uniform", 1 << 20, randomKeys(4096, 1<<14, 4096), ones(4096)},
		{"u=2^40 sparse", 1 << 40, randomKeys(1000, 0, 1<<40), randomCounts(1000, false, true)},
		{"u=2^40 clustered ends", 1 << 40, append(randomKeys(300, 0, 1024), randomKeys(300, 1<<40-1024, 1024)...), randomCounts(600, true, false)},
	}
	for _, tc := range cases {
		assertMatchesSortOracle(t, tc.name, tc.keys, tc.counts, tc.u)
	}
}

// TestSparseTransformSortedPanics keeps the transform's input contract:
// out-of-domain and non-increasing keys are bugs in the caller.
func TestSparseTransformSortedPanics(t *testing.T) {
	for name, keys := range map[string][]int64{
		"negative":      {-1, 2},
		"beyond domain": {2, 8},
		"duplicate":     {3, 3},
		"descending":    {5, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s keys: expected a panic", name)
				}
			}()
			SparseTransformSorted(keys, []float64{1, 1}, 8)
		}()
	}
}

func FuzzSparseTransformSorted(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 7, 7, 90}, uint8(3), false)
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1}, uint8(1), false) // siblings cancel at every level
	f.Add([]byte{255, 254, 3, 9, 27, 81}, uint8(40), true)
	f.Add([]byte{}, uint8(0), true)
	f.Fuzz(func(t *testing.T, raw []byte, logu uint8, signed bool) {
		u := int64(1) << (logu % 41)
		// Two bytes per key: a gap to the previous key (scaled so large
		// domains are reached) and a count, fractional and possibly
		// negative like a sampled frequency estimate.
		var keys []int64
		var counts []float64
		x := int64(-1)
		for i := 0; i+1 < len(raw); i += 2 {
			gap := 1 + int64(raw[i])*(1+u>>12)
			if x+gap >= u {
				break
			}
			x += gap
			c := float64(raw[i+1]%8) / 2 // exact halves, zero included
			if signed && raw[i+1]&8 != 0 {
				c = -c
			}
			keys = append(keys, x)
			counts = append(counts, c)
		}
		assertMatchesSortOracle(t, "fuzz", keys, counts, u)
	})
}
