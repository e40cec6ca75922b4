package core

import (
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"testing"

	"wavelethist/internal/zipf"
)

// checkSortKeys sorts a copy of in with sortKeys and compares it with
// slices.Sort, then checks the two returned buffers are distinct storage.
func checkSortKeys(t *testing.T, name string, in []int64) {
	t.Helper()
	want := slices.Clone(in)
	slices.Sort(want)
	sorted, spare := sortKeys(slices.Clone(in), nil)
	if !slices.Equal(sorted, want) {
		t.Fatalf("%s (n=%d): not the sorted permutation of the input", name, len(in))
	}
	if len(sorted) > 0 && cap(spare) > 0 && &sorted[0] == &spare[:1][0] {
		t.Fatalf("%s: sorted and spare share storage", name)
	}
}

func TestSortKeys(t *testing.T) {
	rng := zipf.NewRNG(9)
	random := func(n int, bound int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(bound)
		}
		return keys
	}
	checkSortKeys(t, "empty", nil)
	checkSortKeys(t, "one", []int64{42})
	for _, n := range []int{radixMin - 1, radixMin, radixMin + 1, 3906, 16384} {
		checkSortKeys(t, "random u=2^20", random(n, 1<<20))
		checkSortKeys(t, "random 2D packed", random(n, 1<<62))
		checkSortKeys(t, "one digit", random(n, 1<<radixBits))
		checkSortKeys(t, "one bit past a digit", random(n, 1<<radixBits+1))

		equal := make([]int64, n)
		for i := range equal {
			equal[i] = 1<<32 + 5
		}
		checkSortKeys(t, "all equal", equal)

		asc := random(n, 1<<40)
		slices.Sort(asc)
		checkSortKeys(t, "sorted", asc)
		slices.Reverse(asc)
		checkSortKeys(t, "reversed", asc)

		z := zipf.NewZipf(1<<20, 1.1)
		dup := make([]int64, n)
		for i := range dup {
			dup[i] = z.Sample(rng) - 1
		}
		checkSortKeys(t, "zipf duplicates", dup)

		edges := random(n, 1<<20)
		copy(edges, []int64{0, 1<<20 - 1, 1 << 32, 0, 1<<62 - 1})
		checkSortKeys(t, "edge keys", edges)
	}
	// A spare buffer that is too small, or larger than needed, is fine.
	for _, spare := range [][]int64{make([]int64, 3), make([]int64, 0, 1<<15)} {
		in := random(1000, 1<<20)
		want := slices.Clone(in)
		slices.Sort(want)
		if got, _ := sortKeys(in, spare); !slices.Equal(got, want) {
			t.Fatalf("spare of cap %d: wrong order", cap(spare))
		}
	}
}

func FuzzSortKeys(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(20), uint16(300))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(62), uint16(4000))
	f.Add([]byte{7}, uint8(11), uint16(radixMin))
	f.Fuzz(func(t *testing.T, seed []byte, bits uint8, n uint16) {
		// Keys are the seed's own 8-byte words followed by draws from an
		// RNG it seeds, all masked to bits (at most 62) bits: record keys
		// are non-negative by checkDomain.
		mask := int64(1)<<(bits%63) - 1
		var keys []int64
		var s uint64
		for len(seed) >= 8 {
			w := binary.LittleEndian.Uint64(seed)
			keys, s, seed = append(keys, int64(w)&mask), s^w, seed[8:]
		}
		rng := zipf.NewRNG(s + uint64(len(seed)))
		for i := 0; i < int(n); i++ {
			keys = append(keys, int64(rng.Uint64())&mask)
		}
		checkSortKeys(t, "fuzz", keys)
	})
}

// TestAggregateBuffersNotShared holds each task's aggregated slices while
// other tasks take scratch from the pool, aggregate and return it: a
// pooled buffer handed out while a caller still reads it would show up as
// a changed count here and as a data race under -race.
func TestAggregateBuffersNotShared(t *testing.T) {
	const tasks, rounds, u = 8, 40, 1 << 20
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := zipf.NewRNG(uint64(g))
			for r := 0; r < rounds; r++ {
				n := 1 + int(rng.Int63n(3000))
				want := make(map[int64]float64)
				c := splitCollector{domain: u}
				if err := c.Setup(nil); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					k := rng.Int63n(64) * (u / 64)
					want[k]++
					if err := c.Map(nil, []int64{k}, nil); err != nil {
						t.Error(err)
						return
					}
				}
				sc, keys, counts := c.aggregate()
				runtime.Gosched()
				if len(keys) != len(want) || !slices.IsSorted(keys) {
					t.Errorf("task %d: %d distinct keys (sorted=%v), want %d", g, len(keys), slices.IsSorted(keys), len(want))
				}
				for i, k := range keys {
					if counts[i] != want[k] {
						t.Errorf("task %d: count of %d = %v, want %v", g, k, counts[i], want[k])
					}
				}
				splitScratchPool.Put(sc)
			}
		}(g)
	}
	wg.Wait()
}
