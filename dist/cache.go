package dist

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"

	"wavelethist/internal/core"
)

// Worker-side partial cache. Map-side results are fully deterministic in
// (dataset fingerprint, method, params, round, broadcast, split) — the
// per-split RNG is derived from (seed, split id) and broadcasts carry all
// coordinator feedback — so a repeat build of the same job shape can
// re-ship cached partials instead of recomputing them. The cache is a
// byte-bounded LRU shared across jobs; hit/miss/eviction counters are
// surfaced through GET /dist/v1/state and, per build, via
// MapResponse.Cached → RoundStats.CachedSplits.

// defaultPartialCacheBytes bounds a worker's partial cache.
const defaultPartialCacheBytes int64 = 128 << 20

// partialCacheKey canonicalizes the build-shape half of a cache key.
// Params are defaulted first so logically equal requests collide, and the
// broadcast blob (coordinator feedback: T1/m, the candidate set R) is
// content-hashed in for multi-round rounds — a different k or epsilon, or
// a different round-2 threshold, keys a different entry, which is exactly
// the invalidation rule.
func partialCacheKey(fingerprint, method string, p core.Params, round int, bcast []byte) string {
	p = p.Defaults()
	key := fingerprint + "|" + method +
		"|u" + strconv.FormatInt(p.U, 10) +
		"k" + strconv.Itoa(p.K) +
		"e" + strconv.FormatFloat(p.Epsilon, 'g', -1, 64) +
		"ss" + strconv.FormatInt(p.SplitSize, 10) +
		"s" + strconv.FormatUint(p.Seed, 10) +
		"c" + strconv.FormatBool(p.CombineEnabled) +
		"sb" + strconv.FormatInt(p.SketchBytes, 10) +
		"sd" + strconv.Itoa(p.SketchDegree) +
		"|r" + strconv.Itoa(round)
	if len(bcast) > 0 {
		sum := sha256.Sum256(bcast)
		key += "|" + hex.EncodeToString(sum[:12])
	}
	return key
}

type cacheEntry struct {
	key   string
	part  core.SplitPartial
	bytes int64
}

// partialCache is a byte-bounded LRU of per-split map results.
type partialCache struct {
	mu        sync.Mutex
	max       int64
	bytes     int64
	entries   map[string]*list.Element
	lru       *list.List // front = most recently used
	hits      int64
	misses    int64
	evictions int64
}

func newPartialCache(maxBytes int64) *partialCache {
	return &partialCache{
		max:     maxBytes,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

func splitKey(base string, split int) string {
	return base + "#" + strconv.Itoa(split)
}

// get returns the cached partial for (base, split), counting a hit or
// miss.
func (c *partialCache) get(base string, split int) (core.SplitPartial, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[splitKey(base, split)]
	if !ok {
		c.misses++
		return core.SplitPartial{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).part, true
}

// partialMemBytes estimates a cached partial's in-memory footprint: the
// KV slice (24 bytes per pair after alignment) plus per-entry overhead
// (cacheEntry, key string, map bucket, list element). Charging wire bytes
// (21/pair) instead would let a configured bound pin ~1.5× its size in
// actual heap.
func partialMemBytes(part *core.SplitPartial) int64 {
	const perEntryOverhead = 256
	return perEntryOverhead + 24*int64(len(part.Pairs))
}

// put stores a computed partial, evicting least-recently-used entries
// until the byte bound holds. Entries larger than the whole bound are not
// stored.
func (c *partialCache) put(base string, split int, part core.SplitPartial) {
	size := partialMemBytes(&part)
	key := splitKey(base, split)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.max {
		return
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes += size - e.bytes
		e.part, e.bytes = part, size
		c.lru.MoveToFront(el)
	} else {
		el := c.lru.PushFront(&cacheEntry{key: key, part: part, bytes: size})
		c.entries[key] = el
		c.bytes += size
	}
	for c.bytes > c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, e.key)
		c.bytes -= e.bytes
		c.evictions++
	}
}

// CacheStatsView reports partial-cache occupancy and effectiveness
// (GET /dist/v1/state).
type CacheStatsView struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	CapacityBytes int64 `json:"capacity_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
}

func (c *partialCache) stats() CacheStatsView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStatsView{
		Entries:       c.lru.Len(),
		Bytes:         c.bytes,
		CapacityBytes: c.max,
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
	}
}

// String implements fmt.Stringer for debugging.
func (v CacheStatsView) String() string {
	return fmt.Sprintf("entries=%d bytes=%d/%d hits=%d misses=%d evictions=%d",
		v.Entries, v.Bytes, v.CapacityBytes, v.Hits, v.Misses, v.Evictions)
}
