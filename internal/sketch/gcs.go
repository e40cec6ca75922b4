package sketch

import (
	"fmt"
	"math"
	"sort"

	"wavelethist/internal/heap"
)

// GCS is the Group-Count Sketch of Cormode et al. [13]: a hierarchy of
// linear sketches over a degree-d search tree on the coefficient domain
// [0, u). Level 0 groups are single coefficients; level ℓ groups are
// aligned blocks of d^ℓ coefficients. Each level keeps depth hash rows of
// buckets×subbuckets cells: an item i in group g updates cell
// [row][h_row(g)][f_row(i)] with ξ_row(i)·v. Group L2 energy is estimated
// as the median over rows of the squared sum of the group's subbuckets;
// the top-k coefficients are recovered by descending the tree toward
// high-energy groups and point-estimating the surviving leaves.
//
// The paper runs "GCS-8" (degree 8) with 20KB·log2(u) of space per split
// sketch and merges the m split sketches at the reducer (linearity).
type GCS struct {
	u      int64
	degree int
	depth  int
	bux    int // buckets per row
	sub    int // subbuckets per bucket
	seed   uint64

	levels []gcsLevel
}

type gcsLevel struct {
	numGroups int64
	cells     []float64  // depth × bux × sub
	groupHash []polyHash // per row: group -> bucket
	itemHash  []polyHash // per row: item  -> subbucket
	signHash  []polyHash // per row: item  -> ±1
}

// NewGCS builds a GCS over coefficient domain [0, u) with the given search
// degree, hash depth, and per-row bucket/subbucket counts.
func NewGCS(u int64, degree, depth, buckets, subbuckets int, seed uint64) *GCS {
	if u < 1 {
		panic("sketch: GCS domain must be >= 1")
	}
	if degree < 2 {
		panic("sketch: GCS degree must be >= 2")
	}
	if depth < 1 || buckets < 1 || subbuckets < 1 {
		panic("sketch: GCS dimensions must be positive")
	}
	g := &GCS{u: u, degree: degree, depth: depth, bux: buckets, sub: subbuckets, seed: seed}
	// Levels from leaves (groups of size 1) to a root level with <= degree
	// groups.
	groups := u
	level := 0
	for {
		lv := gcsLevel{
			numGroups: groups,
			cells:     make([]float64, depth*buckets*subbuckets),
			groupHash: make([]polyHash, depth),
			itemHash:  make([]polyHash, depth),
			signHash:  make([]polyHash, depth),
		}
		for d := 0; d < depth; d++ {
			base := seed ^ uint64(level)*0x9e3779b97f4a7c15 ^ uint64(d)*0xc2b2ae3d27d4eb4f
			lv.groupHash[d] = newPolyHash(base ^ 0x01)
			lv.itemHash[d] = newPolyHash(base ^ 0x02)
			lv.signHash[d] = newPolyHash(base ^ 0x03)
		}
		g.levels = append(g.levels, lv)
		if groups <= int64(degree) {
			break
		}
		groups = (groups + int64(degree) - 1) / int64(degree)
		level++
	}
	return g
}

// NewGCSWithBudget sizes a GCS to approximately budgetBytes (the paper's
// 20KB·log2(u) recommendation) split evenly across levels, with the given
// degree and depth 3.
func NewGCSWithBudget(u int64, degree int, budgetBytes int64, seed uint64) *GCS {
	// Count levels the same way NewGCS will.
	numLevels := 1
	for groups := u; groups > int64(degree); groups = (groups + int64(degree) - 1) / int64(degree) {
		numLevels++
	}
	const depth = 3
	const sub = 8
	cellsPerLevel := budgetBytes / 8 / int64(numLevels) / depth
	buckets := int(cellsPerLevel / sub)
	if buckets < 1 {
		buckets = 1
	}
	return NewGCS(u, degree, depth, buckets, sub, seed)
}

// U returns the coefficient domain size.
func (g *GCS) U() int64 { return g.u }

// Levels returns the number of hierarchy levels.
func (g *GCS) Levels() int { return len(g.levels) }

// Bytes returns total sketch memory (8 bytes per cell).
func (g *GCS) Bytes() int64 {
	var n int64
	for _, lv := range g.levels {
		n += int64(len(lv.cells)) * 8
	}
	return n
}

// UpdateCost returns the number of cell updates one Update performs —
// the per-item update cost the paper measures (GCS-8's selling point).
func (g *GCS) UpdateCost() int {
	return len(g.levels) * g.depth
}

// Update adds v to coefficient i. The loop body is kept tight — locals
// hoisted, one bounds-checked slice per level — because this is the map
// side's dominant cost for Send-Sketch (levels × depth cell updates per
// distinct coefficient).
func (g *GCS) Update(i int64, v float64) {
	if i < 0 || i >= g.u {
		panic(fmt.Sprintf("sketch: GCS update %d out of domain %d", i, g.u))
	}
	item := uint64(i)
	gid := uint64(i)
	bux, sub, depth := g.bux, g.sub, g.depth
	deg := uint64(g.degree)
	for l := range g.levels {
		lv := &g.levels[l]
		cells := lv.cells
		for d := 0; d < depth; d++ {
			b := lv.groupHash[d].bucket(gid, bux)
			s := lv.itemHash[d].bucket(item, sub)
			cells[(d*bux+b)*sub+s] += lv.signHash[d].sign(item) * v
		}
		gid /= deg
	}
}

// GroupEnergy estimates the L2² energy of group gid at the given level.
func (g *GCS) GroupEnergy(level int, gid int64) float64 {
	lv := &g.levels[level]
	ests := make([]float64, g.depth)
	for d := 0; d < g.depth; d++ {
		b := lv.groupHash[d].bucket(uint64(gid), g.bux)
		var sum float64
		for s := 0; s < g.sub; s++ {
			c := lv.cells[(d*g.bux+b)*g.sub+s]
			sum += c * c
		}
		ests[d] = sum
	}
	return median(ests)
}

// Estimate point-estimates coefficient i (signed) from the leaf level.
func (g *GCS) Estimate(i int64) float64 {
	lv := &g.levels[0]
	item := uint64(i)
	ests := make([]float64, g.depth)
	for d := 0; d < g.depth; d++ {
		b := lv.groupHash[d].bucket(uint64(i), g.bux)
		s := lv.itemHash[d].bucket(item, g.sub)
		ests[d] = lv.signHash[d].sign(item) * lv.cells[(d*g.bux+b)*g.sub+s]
	}
	return median(ests)
}

// TopK recovers the k coefficients of (approximately) largest magnitude by
// hierarchical search: starting from the root groups, each level keeps the
// beam-width groups of largest estimated energy and expands their children;
// surviving leaves are point-estimated and the best k returned. beam <= 0
// uses max(4k, 32).
func (g *GCS) TopK(k, beam int) []CoefEstimate {
	if beam <= 0 {
		beam = 4 * k
		if beam < 32 {
			beam = 32
		}
	}
	top := len(g.levels) - 1
	// All root groups are candidates.
	cands := make([]int64, 0, g.levels[top].numGroups)
	for gid := int64(0); gid < g.levels[top].numGroups; gid++ {
		cands = append(cands, gid)
	}
	for level := top; level >= 1; level-- {
		// Keep the beam highest-energy groups at this level.
		h := heap.NewTopK(beam)
		for _, gid := range cands {
			h.Push(heap.Item{ID: gid, Score: g.GroupEnergy(level, gid)})
		}
		next := cands[:0]
		for _, it := range h.Sorted() {
			// Expand to children at level-1.
			base := it.ID * int64(g.degree)
			for c := 0; c < g.degree; c++ {
				child := base + int64(c)
				if child < g.levels[level-1].numGroups {
					next = append(next, child)
				}
			}
		}
		cands = next
	}
	// Leaves: point-estimate and keep top-k by magnitude.
	h := heap.NewTopK(k)
	vals := make(map[int64]float64, len(cands))
	for _, i := range cands {
		est := g.Estimate(i)
		vals[i] = est
		h.Push(heap.Item{ID: i, Score: math.Abs(est)})
	}
	items := h.Sorted()
	out := make([]CoefEstimate, len(items))
	for i, it := range items {
		out[i] = CoefEstimate{Index: it.ID, Value: vals[it.ID]}
	}
	return out
}

// CoefEstimate is a recovered coefficient.
type CoefEstimate struct {
	Index int64
	Value float64
}

// Merge adds other into g; sketches must share all parameters and seed.
func (g *GCS) Merge(other *GCS) error {
	if g.u != other.u || g.degree != other.degree || g.depth != other.depth ||
		g.bux != other.bux || g.sub != other.sub || g.seed != other.seed {
		return fmt.Errorf("sketch: incompatible GCS sketches")
	}
	for l := range g.levels {
		dst, src := g.levels[l].cells, other.levels[l].cells
		for i := range dst {
			dst[i] += src[i]
		}
	}
	return nil
}

// NonZeroEntries enumerates non-zero cells as (packed index, value) pairs;
// packed = level·2^40 + flatCell. This is Send-Sketch's wire format.
func (g *GCS) NonZeroEntries(emit func(idx int64, v float64)) {
	for l := range g.levels {
		base := int64(l) << 40
		for i, v := range g.levels[l].cells {
			if v != 0 {
				emit(base+int64(i), v)
			}
		}
	}
}

// AddEntry merges one shipped non-zero entry. An index NonZeroEntries
// cannot produce — a negative one, or a cell past its level's end — is an
// error.
func (g *GCS) AddEntry(idx int64, v float64) error {
	l, cell := idx>>40, idx&(1<<40-1)
	if idx < 0 || l >= int64(len(g.levels)) || cell >= int64(len(g.levels[l].cells)) {
		return fmt.Errorf("sketch: entry %d is outside the sketch (level %d, cell %d)", idx, l, cell)
	}
	g.levels[l].cells[cell] += v
	return nil
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
