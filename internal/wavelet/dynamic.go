package wavelet

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// Dynamic maintenance of a wavelet histogram under updates — the paper's
// closing-remarks open problem ("how to incrementally maintain the summary
// when the data stored in the MapReduce cluster is being updated"),
// following the shadow-coefficient approach of Matias, Vitter, Wang [27]:
// keep the retained top-k set plus a larger shadow set of runner-up
// coefficients; apply each update's O(log u) path contributions to
// whichever tracked coefficients it touches; promote shadow coefficients
// the moment they outgrow retained ones.
//
// A tracked value is not in general the coefficient's true value. A
// coefficient tracked since the seed carries its seed value plus every
// update since; one adopted later carries only the contributions of the
// updates since its adoption (the [27] rule, see Update), so it misses
// its true value at adoption, and one that compaction drops loses what it
// had gathered. The retained set is the top-k of these tracked values,
// which can differ from the data's true top-k; nothing here bounds or
// reports the error.
//
// The retained/shadow partition is maintained *incrementally*: tracked
// coefficients are nodes in a slab behind one flat hash index (coefIndex),
// the retained set a weakest-at-root heap of node numbers and the shadow
// set a strongest-at-root one, whose sifts write positions into the nodes.
// An update costs one index probe per path coefficient and repairs only those
// ≤ log2(u)+1 coefficients (O(log u · log(k+shadow)) heap moves). While
// retained membership is unchanged, a read copies the previous snapshot's
// coefficient array, patches the values that moved, and shares its
// piece table; a membership change re-sorts the retained set, starting
// from the previous snapshot's order. Snapshots store no per-piece
// estimates, so a point read makes its piece's list pass.

// node is one tracked coefficient.
type node struct {
	Coef       // index and tracked value (see the header on adoption), never 0
	pos  int32 // position in its heap
	slot int32 // position in rep.Coefs as of the last rebuild (retained nodes)
	ret  bool  // in the retained heap (else the shadow heap)
}

// stronger is the total order the partition lives under: larger magnitude
// first, ties broken by ascending coefficient index — the same order
// SelectTopK and SortCoefsByMagnitude use, so the incremental partition
// selects exactly the coefficients a full re-selection would.
func stronger(a, b Coef) bool {
	if sa, sb := math.Abs(a.Value), math.Abs(b.Value); sa != sb {
		return sa > sb
	}
	return a.Index < b.Index
}

// ranked is a node's coefficient and magnitude copied beside its number,
// so sorting and selection compare contiguous values instead of chasing
// node numbers.
type ranked struct {
	Coef
	mag float64 // |Value|
	n   int32
}

// byStrength is `stronger` as a three-way comparison, strongest first.
func byStrength(a, b ranked) int {
	if a.mag != b.mag {
		if a.mag > b.mag {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Index, b.Index)
}

// side is one heap of the partition: node numbers, the weakest member at
// the root when weak is set (retained), the strongest otherwise (shadow).
type side struct {
	at   []int32
	weak bool
}

// Maintainer incrementally maintains a k-term representation.
type Maintainer struct {
	u       int64
	logu    uint
	k       int
	shadow  int       // tracked coefficients beyond k
	sqrtLen []float64 // sqrtLen[j] = √(u>>j), j = 0..logu; [0] divides the average's share

	// The incrementally maintained partition. Invariant: ret holds the
	// top-min(k, tracked) coefficients under the `stronger` order, sha
	// holds the rest, and every retained coefficient is stronger than
	// every shadow one — so sha is non-empty only while ret is full.
	index coefIndex // coefficient index -> node; sized for compact's bound
	nodes []node
	free  []int32 // node numbers released by drops and compaction
	ret   side
	sha   side
	moves int64    // heap moves, for RepairOps
	order []ranked // scratch for rebuildRep and compact

	// Snapshot machinery. rep is the last representation handed out, and
	// immutable from then on (registry snapshots may hold it forever). The
	// next read patches the slots of the nodes listed in dirty (of every
	// retained node once the list would outgrow k) into a copy sharing
	// rep's piece table, which stores positions, not values; a
	// membership change forces a full rebuild instead.
	rep         *Representation
	dirty       []int32 // retained nodes whose values moved
	patchAll    bool
	memberDirty bool
}

// NewMaintainer starts maintenance from a full coefficient set (e.g. the
// non-zero coefficients of an initial build). shadow <= 0 defaults to 4k.
func NewMaintainer(u int64, initial []Coef, k, shadow int) *Maintainer {
	if !IsPowerOfTwo(u) {
		panic("wavelet: maintainer domain must be a power of two")
	}
	if k < 1 {
		panic("wavelet: maintainer k must be >= 1")
	}
	if shadow <= 0 {
		shadow = 4 * k
	}
	m := &Maintainer{
		u:           u,
		logu:        Log2(u),
		k:           k,
		shadow:      shadow,
		ret:         side{weak: true},
		memberDirty: true,
	}
	// Tracked coefficients peak just past compact's trigger, at 2(k+shadow)
	// plus the log2(u)+1 that one update adopts, and never exceed u.
	m.index = newCoefIndex(int(min(int64(2*(k+shadow))+int64(m.logu)+1, u, maxPresized)))
	for j := uint(0); j <= m.logu; j++ {
		m.sqrtLen = append(m.sqrtLen, math.Sqrt(float64(u>>j)))
	}
	// Track the top (k + shadow) initial coefficients; SelectTopK returns
	// them strongest-first, so the first k seed the retained set.
	m.seed(SelectTopK(initial, k+shadow))
	return m
}

// RestoreMaintainer rebuilds a maintainer from a persisted tracked set
// (the slice TrackedCoefs returned). Unlike NewMaintainer it tracks every
// given coefficient — a live maintainer adopts coefficients beyond
// k+shadow between compactions, and truncating them on restore would
// diverge from the saved state. Because the retained/shadow partition is
// a pure function of the tracked set under the `stronger` order, the
// restored maintainer is state-identical to the one that was saved.
func RestoreMaintainer(u int64, tracked []Coef, k, shadow int) *Maintainer {
	m := NewMaintainer(u, nil, k, shadow)
	m.seed(SelectTopK(tracked, len(tracked)))
	return m
}

// seed installs coefficients (given strongest-first) into the empty
// partition: the first k retained, the rest shadow.
func (m *Maintainer) seed(coefs []Coef) {
	for _, c := range coefs {
		if _, dup := m.index.get(c.Index); !dup && c.Value != 0 {
			m.adopt(m.track(c.Index, c.Value))
		}
	}
}

// K returns the maintained representation size.
func (m *Maintainer) K() int { return m.k }

// Domain returns the key-domain size u.
func (m *Maintainer) Domain() int64 { return m.u }

// Shadow returns the configured shadow-set size (tracked slots beyond k).
func (m *Maintainer) Shadow() int { return m.shadow }

// Tracked returns the number of tracked (retained + shadow) coefficients.
func (m *Maintainer) Tracked() int { return m.index.n }

// TrackedCoefs returns a copy of the tracked coefficient set (retained
// and shadow, unspecified order) — the state a caller would persist or
// re-seed a maintainer from.
func (m *Maintainer) TrackedCoefs() []Coef {
	out := make([]Coef, 0, m.index.n)
	for _, h := range [2][]int32{m.ret.at, m.sha.at} {
		for _, n := range h {
			out = append(out, m.nodes[n].Coef)
		}
	}
	return out
}

// RepairOps returns the cumulative number of heap moves performed by
// incremental partition repairs. Regression tests bound its growth per
// update to O(log u · log(k+shadow)) — independent of the tracked-set
// size — to prove updates never re-heapify the whole tracked set.
func (m *Maintainer) RepairOps() int64 { return m.moves }

// Update applies delta occurrences of key x (delta may be negative for
// deletions). O(log u) path coefficients touched, each repaired with
// O(log(k+shadow)) heap moves: tracked ones are adjusted exactly, and any
// path coefficient that becomes large enough to matter is newly tracked
// (it starts from the correct current value only if it was tracked before
// — untracked path coefficients are adopted with just this update's
// contribution, the [27] approximation).
func (m *Maintainer) Update(x int64, delta float64) {
	if x < 0 || x >= m.u {
		panic("wavelet: update key out of domain")
	}
	if delta == 0 {
		return
	}
	m.applyCoef(0, delta/m.sqrtLen[0])
	for j := uint(0); j < m.logu; j++ {
		// Level j splits x's dyadic range of length u>>j in two halves;
		// the bit below the range's prefix says which half x is in.
		contrib := delta / m.sqrtLen[j]
		if x>>(m.logu-1-j)&1 == 0 {
			contrib = -contrib
		}
		m.applyCoef(int64(1)<<j+x>>(m.logu-j), contrib)
	}
	// Bound memory: when tracking grows well past k+shadow, drop the
	// weakest shadow tail.
	if m.index.n > 2*(m.k+m.shadow) {
		m.compact()
	}
}

// applyCoef adds contrib to one tracked-or-adopted coefficient and
// repairs the retained/shadow partition around it.
func (m *Maintainer) applyCoef(idx int64, contrib float64) {
	n, tracked := m.index.get(idx)
	if !tracked {
		if contrib != 0 {
			m.adopt(m.track(idx, contrib))
		}
		return
	}
	nd := &m.nodes[n]
	if nd.Value += contrib; nd.Value == 0 {
		m.drop(n)
		return
	}
	if nd.ret {
		m.fix(&m.ret, int(nd.pos))
		m.markValueDirty(n)
		// The changed coefficient may now be weaker than the strongest
		// shadow; swap across the boundary until the invariant holds.
		for len(m.sha.at) > 0 && stronger(m.nodes[m.sha.at[0]].Coef, m.nodes[m.ret.at[0]].Coef) {
			m.replaceRoot(&m.sha, m.replaceRoot(&m.ret, m.sha.at[0]))
			m.markMemberDirty()
		}
		return
	}
	// A shadow node implies a full retained set: promote it over the
	// weakest retained node, or leave it in the shadow heap.
	if stronger(nd.Coef, m.nodes[m.ret.at[0]].Coef) {
		m.remove(n)
		m.adopt(n)
	} else {
		m.fix(&m.sha, int(nd.pos))
	}
}

// adopt places a node that is in neither heap: a newly tracked one (the
// [27] rule), a seed, or a promoted shadow node.
func (m *Maintainer) adopt(n int32) {
	switch {
	case len(m.ret.at) < m.k:
		m.push(&m.ret, n)
		m.markMemberDirty()
	case stronger(m.nodes[n].Coef, m.nodes[m.ret.at[0]].Coef):
		m.push(&m.sha, m.replaceRoot(&m.ret, n))
		m.markMemberDirty()
	default:
		m.push(&m.sha, n)
	}
}

// drop untracks a node whose value reached exactly zero, refilling a freed
// retained slot with the strongest shadow node.
func (m *Maintainer) drop(n int32) {
	retained := m.nodes[n].ret
	m.remove(n)
	m.release(n)
	if retained {
		m.markMemberDirty()
		if len(m.sha.at) > 0 {
			top := m.sha.at[0]
			m.remove(top)
			m.push(&m.ret, top)
		}
	}
}

// track allocates a node for coefficient idx and indexes it.
func (m *Maintainer) track(idx int64, v float64) int32 {
	var n int32
	if last := len(m.free) - 1; last >= 0 {
		n, m.free = m.free[last], m.free[:last]
		m.nodes[n] = node{Coef: Coef{Index: idx, Value: v}}
	} else {
		n = int32(len(m.nodes))
		m.nodes = append(m.nodes, node{Coef: Coef{Index: idx, Value: v}})
	}
	m.index.put(idx, n)
	return n
}

// release untracks a node that is in no heap.
func (m *Maintainer) release(n int32) {
	m.index.del(m.nodes[n].Index)
	m.free = append(m.free, n)
}

func (m *Maintainer) markMemberDirty() {
	m.memberDirty, m.dirty, m.patchAll = true, m.dirty[:0], false
}

func (m *Maintainer) markValueDirty(n int32) {
	if m.memberDirty || m.rep == nil || m.patchAll {
		return
	}
	if len(m.dirty) >= m.k {
		m.patchAll, m.dirty = true, m.dirty[:0]
		return
	}
	m.dirty = append(m.dirty, n)
}

// compact trims the shadow set back so tracked coefficients total
// k+shadow, dropping the weakest: an expected O(T) selection of the
// strongest shadow nodes, an O(k+shadow) heapify of the kept ones. It
// runs at most once per ~(k+shadow)/log2(u) updates, since each update
// adopts at most log2(u)+1 new coefficients.
func (m *Maintainer) compact() {
	keep := max(m.k+m.shadow-len(m.ret.at), 0)
	if len(m.sha.at) <= keep {
		return
	}
	ord := m.rank(m.sha.at)
	selectStrongest(ord, keep)
	for _, r := range ord[keep:] {
		m.release(r.n)
	}
	m.sha.at = m.sha.at[:keep]
	for i, r := range ord[:keep] {
		m.sha.at[i], m.nodes[r.n].pos = r.n, int32(i)
	}
	for i := keep/2 - 1; i >= 0; i-- {
		m.siftDown(&m.sha, i)
	}
}

// rank copies the nodes ns into the scratch slice.
func (m *Maintainer) rank(ns []int32) []ranked {
	m.order = m.order[:0]
	for _, n := range ns {
		m.order = append(m.order, m.ranked(n))
	}
	return m.order
}

func (m *Maintainer) ranked(n int32) ranked {
	c := m.nodes[n].Coef
	return ranked{c, math.Abs(c.Value), n}
}

// selectStrongest reorders rs so that its first keep entries are the keep
// strongest (the order is strict, so that set is unique), in no
// particular order: quickselect, handing a range still unresolved after
// 2·log2(len) rounds, or a short one, to a full sort.
func selectStrongest(rs []ranked, keep int) {
	lo, hi := 0, len(rs)
	for rounds := 2 * bits.Len(uint(len(rs))); hi-lo > 16 && rounds > 0; rounds-- {
		p := lo + partition(rs[lo:hi])
		switch {
		case p == keep:
			return
		case p < keep:
			lo = p + 1
		default:
			hi = p
		}
	}
	slices.SortFunc(rs[lo:hi], byStrength)
}

// partition moves rs's middle entry to its final position p, stronger
// entries before it and weaker after, and returns p.
func partition(rs []ranked) int {
	last := len(rs) - 1
	rs[len(rs)/2], rs[last] = rs[last], rs[len(rs)/2]
	pivot, p := rs[last], 0
	for j := range rs[:last] {
		if byStrength(rs[j], pivot) < 0 {
			rs[p], rs[j] = rs[j], rs[p]
			p++
		}
	}
	rs[p], rs[last] = rs[last], rs[p]
	return p
}

// above reports whether node a belongs nearer s's root than node b.
func (m *Maintainer) above(s *side, a, b int32) bool {
	return stronger(m.nodes[a].Coef, m.nodes[b].Coef) != s.weak
}

func (m *Maintainer) push(s *side, n int32) {
	m.nodes[n].ret = s.weak
	s.at = append(s.at, n)
	m.moves++
	m.siftUp(s, len(s.at)-1, n)
}

// replaceRoot puts n at s's root in place of the root node, which it
// returns detached from both heaps.
func (m *Maintainer) replaceRoot(s *side, n int32) int32 {
	old := s.at[0]
	m.nodes[n].ret = s.weak
	s.at[0] = n
	m.moves++
	m.siftDown(s, 0)
	return old
}

// remove detaches node n from its heap.
func (m *Maintainer) remove(n int32) {
	s := &m.sha
	if m.nodes[n].ret {
		s = &m.ret
	}
	i, last := int(m.nodes[n].pos), len(s.at)-1
	moved := s.at[last]
	s.at = s.at[:last]
	m.moves++
	if i < last {
		s.at[i] = moved
		m.nodes[moved].pos = int32(i)
		m.fix(s, i)
	}
}

// fix restores heap order around position i after its node's value moved.
func (m *Maintainer) fix(s *side, i int) {
	m.moves++
	if !m.siftDown(s, i) {
		m.siftUp(s, i, s.at[i])
	}
}

// siftUp moves node n, sitting at position i, toward the root.
func (m *Maintainer) siftUp(s *side, i int, n int32) {
	for i > 0 {
		p := (i - 1) / 2
		if !m.above(s, n, s.at[p]) {
			break
		}
		s.at[i] = s.at[p]
		m.nodes[s.at[i]].pos = int32(i)
		i = p
		m.moves++
	}
	s.at[i] = n
	m.nodes[n].pos = int32(i)
}

// siftDown moves the node at position i away from the root, reporting
// whether it moved.
func (m *Maintainer) siftDown(s *side, i int) bool {
	n, start := s.at[i], i
	for {
		c := 2*i + 1
		if c >= len(s.at) {
			break
		}
		if r := c + 1; r < len(s.at) && m.above(s, s.at[r], s.at[c]) {
			c = r
		}
		if !m.above(s, s.at[c], n) {
			break
		}
		s.at[i] = s.at[c]
		m.nodes[s.at[i]].pos = int32(i)
		i = c
		m.moves++
	}
	s.at[i] = n
	m.nodes[n].pos = int32(i)
	return i != start
}

// Representation returns the current k-term representation (the retained
// set). The returned value is immutable and safe to publish; the result
// is cached until the next Update. After value-only changes the snapshot
// is a copy-and-patch of the previous one sharing its piece table;
// only a retained-membership change rebuilds the array and index.
func (m *Maintainer) Representation() *Representation {
	if m.rep == nil || m.memberDirty {
		m.rebuildRep()
	} else if m.patchAll || len(m.dirty) > 0 {
		m.patchRep()
	}
	return m.rep
}

// rebuildRep sorts the retained nodes into a new snapshot, starting from
// the previous snapshot's order, which a membership change disturbs
// little: the nodes still at their last-rebuild slot, in slot order, then
// the new members. `stronger` is a strict total order, so where the sort
// starts does not change its result.
func (m *Maintainer) rebuildRep() {
	var prev []Coef
	if m.rep != nil {
		prev = m.rep.Coefs
	}
	ord := slices.Grow(m.order[:0], len(prev)+len(m.ret.at))[:len(prev)]
	for i := range ord {
		ord[i].n = -1
	}
	for _, n := range m.ret.at {
		r := m.ranked(n)
		// A coefficient is tracked by one node at a time, so at most one
		// node claims each slot.
		if s := m.nodes[n].slot; int(s) < len(prev) && prev[s].Index == r.Index {
			ord[s] = r
		} else {
			ord = append(ord, r)
		}
	}
	ord = slices.DeleteFunc(ord, func(r ranked) bool { return r.n < 0 })
	m.order = ord
	slices.SortFunc(ord, byStrength)
	cs := make([]Coef, len(ord))
	for i, r := range ord {
		cs[i] = r.Coef
		m.nodes[r.n].slot = int32(i)
	}
	m.rep = &Representation{U: m.u, Coefs: cs, pieces: newPieceTable(m.u, cs)}
	m.memberDirty, m.dirty, m.patchAll = false, m.dirty[:0], false
}

func (m *Maintainer) patchRep() {
	cs := slices.Clone(m.rep.Coefs)
	moved := m.dirty
	if m.patchAll {
		moved = m.ret.at // membership is unchanged: the retained nodes are rep's
	}
	for _, n := range moved {
		cs[m.nodes[n].slot].Value = m.nodes[n].Value
	}
	m.rep = &Representation{U: m.u, Coefs: cs, pieces: m.rep.pieces}
	m.dirty, m.patchAll = m.dirty[:0], false
}
