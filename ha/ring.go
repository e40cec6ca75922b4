// Package ha is the high-availability serving tier: it turns single
// wavehistd processes into a sharded, replicated cluster. Histogram
// names are placed on shards by a consistent-hash ring (Ring), each
// shard's primary streams registry changes to read replicas (Replica),
// and a stateless router (Router) fronts the fleet — forwarding queries
// to the owning shard, retrying reads against replicas when a primary is
// down, and fanning out list/stats/batch requests across shards.
//
// The division of labor mirrors the paper's serving story: summaries are
// tiny (kilobytes), so replication is cheap enough to run everywhere,
// and the expensive part — the distributed build — stays on the
// coordinator. A coordinator crash fails the build in flight; the
// client's retry is bit-identical, and the surviving workers' partial
// caches serve the splits they already mapped.
package ha

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultVnodes is how many virtual nodes each shard gets on the ring.
// 128 keeps the max/min load ratio within a few percent for small fleets
// while the whole ring stays tiny (vnodes × 12 bytes).
const defaultVnodes = 128

type vnode struct {
	hash  uint64
	shard int // index into shards
}

// Ring is an immutable consistent-hash ring mapping histogram names to
// shard IDs. Placement depends only on the shard ID set, so every router
// and client configured with the same shards computes identical
// placements with no coordination — and adding a shard moves only
// ~1/(n+1) of the names.
type Ring struct {
	shards []string
	vnodes []vnode
}

// NewRing builds a ring over the given shard IDs with vnodesPer virtual
// nodes each (<= 0 = default 128). Shard IDs must be unique.
func NewRing(shards []string, vnodesPer int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("ha: ring needs at least one shard")
	}
	if vnodesPer <= 0 {
		vnodesPer = defaultVnodes
	}
	seen := map[string]bool{}
	r := &Ring{
		shards: append([]string(nil), shards...),
		vnodes: make([]vnode, 0, len(shards)*vnodesPer),
	}
	for si, id := range shards {
		if id == "" || seen[id] {
			return nil, fmt.Errorf("ha: invalid or duplicate shard ID %q", id)
		}
		seen[id] = true
		for i := 0; i < vnodesPer; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: hash64(fmt.Sprintf("%s#%d", id, i)), shard: si})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	return r, nil
}

// Shard returns the shard ID owning name: the first vnode clockwise of
// the name's hash.
func (r *Ring) Shard(name string) string {
	h := hash64(name)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0 // wrap past the top of the ring
	}
	return r.shards[r.vnodes[i].shard]
}

// Shards returns the shard IDs in configuration order.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// hash64 is FNV-1a finished with the splitmix64 mixer. Raw FNV-1a
// avalanches poorly on the short, near-identical strings ring keys are
// made of ("s0#17", "s1#17", …) — vnodes end up clumped and one shard
// can own most of the keyspace. The finisher makes every input bit
// perturb every output bit, which is what ring uniformity depends on.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
