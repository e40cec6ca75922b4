package dist

import (
	"context"
	"fmt"
	"testing"

	"wavelethist/internal/core"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/mapred"
)

// smallZipf is an 8-split Zipf dataset for fleet builds of every method.
func smallZipf(t testing.TB) (DatasetSpec, *hdfs.File) {
	t.Helper()
	spec := DatasetSpec{Kind: "zipf", Domain: 1 << 10, Records: 1 << 13, Alpha: 1.1, Seed: 5, ChunkSize: 4 << 10}.Normalize()
	file, _, err := spec.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return spec, file
}

func kvPartial(split, npairs int) core.SplitPartial {
	p := core.SplitPartial{SplitID: split}
	for i := 0; i < npairs; i++ {
		p.Pairs = append(p.Pairs, mapred.KV{Key: int64(i), Val: 1})
	}
	return p
}

// TestPartialCacheLRU: the byte bound evicts least-recently-used entries,
// and counters track hits, misses and evictions.
func TestPartialCacheLRU(t *testing.T) {
	// Each 10-pair partial costs 256 + 10*24 = 496 bytes; bound to three.
	const entryBytes = 496
	c := newPartialCache(3 * entryBytes)
	for i := 0; i < 3; i++ {
		c.put("k", i, kvPartial(i, 10))
	}
	if st := c.stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("after 3 puts: %v", st)
	}
	// Touch split 0 so split 1 is the LRU, then insert a fourth.
	if _, ok := c.get("k", 0); !ok {
		t.Fatal("split 0 missing")
	}
	c.put("k", 3, kvPartial(3, 10))
	st := c.stats()
	if st.Entries != 3 || st.Evictions != 1 {
		t.Fatalf("after eviction: %v", st)
	}
	if _, ok := c.get("k", 1); ok {
		t.Error("LRU entry survived eviction")
	}
	for _, id := range []int{0, 2, 3} {
		if _, ok := c.get("k", id); !ok {
			t.Errorf("split %d evicted but was not LRU", id)
		}
	}
	st = c.stats()
	if st.Hits != 4 || st.Misses != 1 {
		t.Errorf("counters: %v", st)
	}
	// An entry larger than the whole bound is not stored.
	c.put("k", 9, kvPartial(9, 1000))
	if _, ok := c.get("k", 9); ok {
		t.Error("oversized entry cached")
	}
}

// TestPartialCacheKey: the key must separate every result-affecting input
// and nothing else.
func TestPartialCacheKey(t *testing.T) {
	p := core.Params{U: 1 << 10, K: 30, Seed: 7}
	base := partialCacheKey("fp", "Send-V", p, 0, nil)
	same := partialCacheKey("fp", "Send-V", core.Params{U: 1 << 10, K: 30, Seed: 7}, 0, nil)
	if base != same {
		t.Error("equal inputs produced different keys")
	}
	// Defaulted and explicit-default params collide (K: 0 → 30).
	if partialCacheKey("fp", "Send-V", core.Params{U: 1 << 10, Seed: 7}, 0, nil) != base {
		t.Error("defaulted params missed the explicit-default key")
	}
	diffs := []string{
		partialCacheKey("fp2", "Send-V", p, 0, nil),
		partialCacheKey("fp", "Send-Coef", p, 0, nil),
		partialCacheKey("fp", "Send-V", core.Params{U: 1 << 10, K: 31, Seed: 7}, 0, nil),
		partialCacheKey("fp", "Send-V", core.Params{U: 1 << 10, K: 30, Seed: 8}, 0, nil),
		partialCacheKey("fp", "Send-V", core.Params{U: 1 << 11, K: 30, Seed: 7}, 0, nil),
		partialCacheKey("fp", "Send-V", p, 1, nil),
		partialCacheKey("fp", "Send-V", p, 2, []byte{1}),
		partialCacheKey("fp", "Send-V", p, 2, []byte{2}),
	}
	seen := map[string]bool{base: true}
	for i, k := range diffs {
		if seen[k] {
			t.Errorf("variant %d collided with another key", i)
		}
		seen[k] = true
	}
}

// TestWorkerWarmMap: a repeat assignment is served entirely from the
// worker's partial cache (zero recompute), and changing k invalidates it.
func TestWorkerWarmMap(t *testing.T) {
	w := NewWorker("w0", 2)
	spec := DatasetSpec{Kind: "zipf", Records: 1 << 12, Domain: 1 << 8, Seed: 5, ChunkSize: 4 << 10}
	req := &MapRequest{
		JobID: "j1", Method: "Send-V",
		Params:  core.Params{U: 1 << 8, K: 10, Seed: 5},
		Dataset: spec, Splits: []int{0, 1, 2},
	}
	cold, err := w.HandleMap(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Cached) != 0 {
		t.Fatalf("cold build reported cache hits: %v", cold.Cached)
	}
	req.JobID = "j2"
	warm, err := w.HandleMap(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Cached) != len(req.Splits) {
		t.Fatalf("warm build cached %v, want all of %v", warm.Cached, req.Splits)
	}
	if string(warm.Partials) != string(cold.Partials) {
		t.Error("cached partials differ from computed ones")
	}
	st := w.CacheStats()
	if st.Hits != 3 || st.Entries != 3 {
		t.Errorf("cache stats after warm build: %v", st)
	}

	// Changing k misses — different key, fresh compute.
	req.JobID = "j3"
	req.Params.K = 20
	inval, err := w.HandleMap(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(inval.Cached) != 0 {
		t.Fatalf("changed params still hit the cache: %v", inval.Cached)
	}
}

// TestWorkerCacheEviction: a byte bound smaller than the working set
// forces recomputation of evicted splits while the rest still hit.
func TestWorkerCacheEviction(t *testing.T) {
	w := NewWorker("w0", 2)
	spec := DatasetSpec{Kind: "zipf", Records: 1 << 12, Domain: 1 << 8, Seed: 5, ChunkSize: 4 << 10}
	req := &MapRequest{
		JobID: "j1", Method: "Send-V",
		Params:  core.Params{U: 1 << 8, K: 10, Seed: 5},
		Dataset: spec, Splits: []int{0, 1, 2},
	}
	cold, err := w.HandleMap(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// A second worker whose bound holds only part of the working set.
	full := w.CacheStats().Bytes
	w = NewWorker("w1", 2)
	w.cache = newPartialCache(full * 2 / 3)
	if _, err := w.HandleMap(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st := w.CacheStats()
	if st.Evictions == 0 || st.Bytes > full*2/3 {
		t.Fatalf("bound did not evict: %v (working set %d bytes)", st, full)
	}
	req.JobID = "j2"
	warm, err := w.HandleMap(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.Cached) == 0 || len(warm.Cached) == len(req.Splits) {
		t.Fatalf("bounded cache hits: %v, want partial", warm.Cached)
	}
	// Results identical regardless of which splits were recomputed.
	if string(warm.Partials) != string(cold.Partials) {
		t.Error("partials after eviction differ")
	}
}

// TestAffinityHeals: a build shape's split→worker map is remembered, but
// a seeded repeat build that got zero cache hits proves the owners'
// caches are cold — the entry must be dropped so later builds are free
// to load-balance instead of staying pinned.
func TestAffinityHeals(t *testing.T) {
	c := NewCoordinator(NewLoopback(), Config{})
	owners, seeded := c.affinityOwners("shape", 4)
	if seeded || len(owners) != 4 {
		t.Fatalf("fresh shape: seeded=%v owners=%v", seeded, owners)
	}
	c.storeAffinity("shape", []string{"w0", "w0", "w1", "w1"}, false, 0)
	got, seeded := c.affinityOwners("shape", 4)
	if !seeded || got[0] != "w0" || got[3] != "w1" {
		t.Fatalf("stored shape: seeded=%v owners=%v", seeded, got)
	}
	// Split-count mismatch (different SplitSize shape) is not seeded.
	if _, ok := c.affinityOwners("shape", 8); ok {
		t.Error("mismatched split count reported seeded")
	}
	// A warm build with hits refreshes the entry.
	c.storeAffinity("shape", []string{"w2", "w2", "w2", "w2"}, true, 4)
	if got, _ := c.affinityOwners("shape", 4); got[0] != "w2" {
		t.Fatalf("refresh did not store: %v", got)
	}
	// A seeded build with zero hits drops the entry.
	c.storeAffinity("shape", []string{"w2", "w2", "w2", "w2"}, true, 0)
	if _, ok := c.affinityOwners("shape", 4); ok {
		t.Error("cold-cache affinity entry survived")
	}
	// FIFO bound holds.
	for i := 0; i < 2*affinityKeys; i++ {
		c.storeAffinity(fmt.Sprintf("s%d", i), []string{"w"}, false, 0)
	}
	c.affMu.Lock()
	n := len(c.affinity)
	c.affMu.Unlock()
	if n > affinityKeys {
		t.Errorf("affinity map grew to %d entries (bound %d)", n, affinityKeys)
	}
}

// cancelAtRound cancels the build's context on the first map request of
// round r and fails every request of that round: the coordinator dying at
// round r-1's barrier.
type cancelAtRound struct {
	Transport
	round  int
	cancel context.CancelFunc
}

func (c *cancelAtRound) MapSplits(ctx context.Context, addr string, req *MapRequest) (*MapResponse, int64, int64, error) {
	if req.Round == c.round {
		c.cancel()
		return nil, 0, 0, context.Canceled
	}
	return c.Transport.MapSplits(ctx, addr, req)
}

// TestRetryAfterCoordinatorCrash: a coordinator that dies at H-WTopk's
// round-2 barrier fails the build, and the client's retry on a new
// coordinator over the same workers is the recovery path — coefficient
// for coefficient a clean build, with the rounds the dead coordinator
// finished served from the workers' partial caches.
func TestRetryAfterCoordinatorCrash(t *testing.T) {
	spec, file := smallZipf(t)
	p := core.Params{U: 1 << 10, K: 25, Seed: 7}
	ref, _ := NewLoopbackCluster(1, 2, Config{})
	want, wantStats, err := ref.Build(context.Background(), spec, file, core.MethodHWTopk, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			lb := NewLoopback()
			var workers []*Worker
			for i := 0; i < n; i++ {
				w := NewWorker(fmt.Sprintf("w%d", i), 2)
				lb.Add(w)
				workers = append(workers, w)
			}
			coordinator := func(tr Transport) *Coordinator {
				c := NewCoordinator(tr, Config{})
				for _, w := range workers {
					c.Register(w.ID(), LoopbackScheme+w.ID(), w.Capacity())
				}
				return c
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if _, _, err := coordinator(&cancelAtRound{Transport: lb, round: 3, cancel: cancel}).Build(ctx, spec, file, core.MethodHWTopk, p); err == nil {
				t.Fatal("a build whose coordinator died at the round-2 barrier succeeded")
			}

			got, stats, err := coordinator(lb).Build(context.Background(), spec, file, core.MethodHWTopk, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rep.Coefs) != len(want.Rep.Coefs) {
				t.Fatalf("coef count: got %d, want %d", len(got.Rep.Coefs), len(want.Rep.Coefs))
			}
			for i := range want.Rep.Coefs {
				if got.Rep.Coefs[i] != want.Rep.Coefs[i] {
					t.Fatalf("coef %d: got %+v, want %+v", i, got.Rep.Coefs[i], want.Rep.Coefs[i])
				}
			}
			if stats.CandidateSetSize != wantStats.CandidateSetSize {
				t.Errorf("candidate set: got %d, want %d", stats.CandidateSetSize, wantStats.CandidateSetSize)
			}
			if len(stats.PerRound) != 3 {
				t.Fatalf("want 3 per-round entries, have %d", len(stats.PerRound))
			}
			r1, r2 := stats.PerRound[0].CachedSplits, stats.PerRound[1].CachedSplits
			if n == 1 && (r1 != stats.Splits || r2 != stats.Splits) {
				t.Errorf("one worker: rounds 1 and 2 cached %d and %d of %d splits, want all", r1, r2, stats.Splits)
			}
			if stats.CachedSplits == 0 {
				t.Error("the retry took no split from the workers' caches")
			}
		})
	}
}
