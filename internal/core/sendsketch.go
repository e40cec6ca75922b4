package core

import (
	"wavelethist/internal/mapred"
	"wavelethist/internal/sketch"
	"wavelethist/internal/wavelet"
)

// Send-Sketch is the sketch-based approximation (Section 4, "System
// issues"): one mapper per split builds a local GCS of the split's wavelet
// coefficients and emits the sketch's non-zero entries; the reducer merges
// the m sketches (linearity) and recovers the top-k coefficients by the
// GCS hierarchical search. Following the paper's setup we use the
// recommended 20KB·log2(u) sketch space, degree 8 ("GCS-8"), and the two
// optimizations of Section 5: aggregate the local frequency vector first
// so each distinct key updates the sketch once, and ship only non-zero
// entries.
//
// The dominant cost — and the reason Send-Sketch is the slowest method in
// the paper (≈10 hours on 50 GB) — is the per-item update cost: every
// distinct key touches log2(u)+1 coefficients, each updating
// levels×depth sketch cells.
func sendSketchStages(e *env) []stage {
	// The level count depends on u and the degree only, so a sketch of one
	// cell per level has the budgeted sketch's levels.
	levels := sketch.NewGCS(e.p.U, e.p.SketchDegree, 1, 1, 1, 0).Levels()
	return []stage{{
		input:   mapred.SequentialInput{},
		mapper:  func() mapred.Mapper { return &sendSketchMapper{splitCollector{domain: e.p.U}, e.p} },
		reducer: &sendSketchReducer{p: e.p},
		// Sketch entries: 4-byte cell index + 8-byte double (Section 5's
		// stated widths).
		pairBytes: fixedBytes(12),
		// Keys pack level·2^40 + cell (GCS.NonZeroEntries); AddEntry
		// refuses a cell past its level's end.
		keys: int64(levels) << 40,
	}}
}

// sketchBudget returns the per-split sketch bytes: the paper's
// 20KB·log2(u) unless overridden.
func sketchBudget(p Params) int64 {
	if p.SketchBytes > 0 {
		return p.SketchBytes
	}
	return 20 * 1024 * int64(wavelet.Log2(p.U))
}

// sketchSeed must be shared by all splits so local sketches merge.
func sketchSeed(p Params) uint64 { return p.Seed ^ 0x5ce7c4b5ce7c4b13 }

type sendSketchMapper struct {
	splitCollector
	p Params
}

func (m *sendSketchMapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	g := sketch.NewGCSWithBudget(m.p.U, m.p.SketchDegree, sketchBudget(m.p), sketchSeed(m.p))
	// Aggregate the split's sparse coefficient vector first (the same
	// O(|v_j| log u) streaming transform the exact methods use), then
	// sketch each distinct non-zero coefficient once. The sketch is linear,
	// so this is Section 5's "aggregate before updating" optimization
	// carried from keys to coefficients: per-key root-to-leaf streaming
	// touched levels×depth cells for every (key, level) pair, while the
	// union of the paths has at most min(|v_j|·(log u+1), 2u) distinct
	// nodes — far fewer under skew, where paths share prefixes.
	// Sorted feeding keeps coefficient accumulation order, and therefore
	// the shipped float bits, deterministic.
	sc, keys, counts := m.aggregate()
	defer splitScratchPool.Put(sc)
	sc.coefs = wavelet.AppendSparseTransformSorted(sc.coefs[:0], keys, counts, m.p.U)
	ctx.AddWork(transformWork(len(keys), m.p.U))
	for _, c := range sc.coefs {
		g.Update(c.Index, c.Value)
	}
	ctx.AddWork(float64(len(sc.coefs) * g.UpdateCost()))
	n := 0
	g.NonZeroEntries(func(idx int64, v float64) {
		out.Emit(mapred.KV{Key: idx, Val: v})
		n++
	})
	ctx.AddWork(float64(n))
	return nil
}

type sendSketchReducer struct {
	p     Params
	g     *sketch.GCS
	coefs []wavelet.Coef
}

func (r *sendSketchReducer) Setup(*mapred.TaskContext) error {
	r.g = sketch.NewGCSWithBudget(r.p.U, r.p.SketchDegree, sketchBudget(r.p), sketchSeed(r.p))
	return nil
}

func (r *sendSketchReducer) Reduce(_ *mapred.TaskContext, key int64, vals []mapred.KV) error {
	for _, kv := range vals {
		if err := r.g.AddEntry(key, kv.Val); err != nil {
			return err
		}
	}
	return nil
}

func (r *sendSketchReducer) top() []wavelet.Coef { return r.coefs }

func (r *sendSketchReducer) Close(ctx *mapred.TaskContext) error {
	top := r.g.TopK(r.p.K, 0)
	// Charge the hierarchical search: beam × levels × group-energy cost.
	ctx.AddWork(float64(r.g.Levels() * 64 * r.p.K))
	r.coefs = make([]wavelet.Coef, len(top))
	for i, c := range top {
		r.coefs[i] = wavelet.Coef{Index: c.Index, Value: c.Value}
	}
	return nil
}
