package core

import (
	"wavelethist/internal/hdfs"
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
	return []stage{{
		input:   mapred.SequentialInput{},
		mapper:  func() mapred.Mapper { return &sendSketchMapper{p: e.p} },
		reducer: &sendSketchReducer{p: e.p},
		// Sketch entries: 4-byte cell index + 8-byte double (Section 5's
		// stated widths).
		pairBytes: fixedBytes(12),
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

// denseFreqMax gates the mapper's dense frequency accumulator: domains at
// or under it use a flat []float64 (one add per record, naturally sorted
// iteration, no per-record map hashing); larger domains keep the map.
const denseFreqMax = 1 << 20

type sendSketchMapper struct {
	p     Params
	freq  map[int64]float64
	dense []float64 // non-nil iff p.U <= denseFreqMax
}

func (m *sendSketchMapper) Setup(*mapred.TaskContext) error {
	if m.p.U <= denseFreqMax {
		m.dense = make([]float64, m.p.U)
	} else {
		m.freq = make(map[int64]float64)
	}
	return nil
}

func (m *sendSketchMapper) Map(ctx *mapred.TaskContext, rec hdfs.Record, _ *mapred.Emitter) error {
	if err := checkDomain(rec.Key, m.p.U); err != nil {
		return err
	}
	if m.dense != nil {
		m.dense[rec.Key]++
	} else {
		m.freq[rec.Key]++
	}
	return nil
}

func (m *sendSketchMapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	g := sketch.NewGCSWithBudget(m.p.U, m.p.SketchDegree, sketchBudget(m.p), sketchSeed(m.p))
	u := m.p.U
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
	var (
		keys   []int64
		counts []float64
		nk     int
	)
	buf := wavelet.GetFreqBuffers()
	defer wavelet.PutFreqBuffers(buf)
	if m.dense != nil {
		for x, c := range m.dense {
			if c != 0 {
				buf.Keys = append(buf.Keys, int64(x))
				buf.Counts = append(buf.Counts, c)
			}
		}
		keys, counts = buf.Keys, buf.Counts
	} else {
		keys, counts = buf.Load(m.freq)
	}
	nk = len(keys)
	coefs := wavelet.SparseTransformSorted(keys, counts, u)
	ctx.AddWork(transformWork(nk, u))
	for _, c := range coefs {
		g.Update(c.Index, c.Value)
	}
	ctx.AddWork(float64(len(coefs) * g.UpdateCost()))
	n := 0
	g.NonZeroEntries(func(idx int64, v float64) {
		out.Emit(mapred.KV{Key: idx, Val: v, Src: int32(ctx.SplitID)})
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
		r.g.AddEntry(key, kv.Val)
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
