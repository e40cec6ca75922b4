package core

import (
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// Send-V is the first exact baseline (Section 3): each split emits its
// entire local frequency vector v_j as (x, v_j(x)) pairs; the single
// reducer aggregates v = Σ v_j and runs the centralized best-k-term
// selection. Communication is O(m·u) in the worst case — the paper's
// motivation for everything that follows. Send-V-2D is the same job over
// packed keys.
func sendVStages(e *env) []stage {
	return []stage{{
		input:   mapred.SequentialInput{},
		mapper:  func() mapred.Mapper { return &sendVMapper{splitCollector{domain: e.domain}} },
		reducer: &estimateReducer{k: e.p.K, p: 1, tf: e.tf},
		// Wire format: key + 4-byte count ("we use 4-byte integers to
		// represent v(x) in a Mapper", Section 5).
		pairBytes: fixedBytes(e.keyBytes() + 4),
		keys:      e.domain,
	}}
}

// sendVMapper aggregates its split's frequency vector (the hashmap of
// Appendix A, here the shared sort-and-count) and emits one (x, count)
// pair per distinct key.
type sendVMapper struct{ splitCollector }

func (m *sendVMapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	sc, keys, counts := m.aggregate()
	defer splitScratchPool.Put(sc)
	for i, x := range keys {
		out.Emit(mapred.KV{Key: x, Val: counts[i]})
	}
	return nil
}

// estimateReducer is the reducer of every method that ships key counts:
// it accumulates ρ(x) = Σ_j s_j(x) and the NULL-pair counts M(x),
// reconstructs ŝ(x) = ρ(x) + M(x)/(ε√m) (Figure 4; only TwoLevel-S sends
// NULL pairs), rescales to v̂ = ŝ/p, transforms, and selects the top-k.
// Send-V is the case p = 1 of exact counts.
type estimateReducer struct {
	k        int
	p        float64 // level-1 sampling probability
	epsSqrtM float64 // ε√m, the weight of one NULL pair (TwoLevel-S)
	tf       coefTransform
	rho      map[int64]float64
	nulls    map[int64]int64
	coefs    []wavelet.Coef
}

func (r *estimateReducer) Setup(*mapred.TaskContext) error {
	r.rho = make(map[int64]float64)
	r.nulls = make(map[int64]int64)
	return nil
}

func (r *estimateReducer) Reduce(_ *mapred.TaskContext, key int64, vals []mapred.KV) error {
	for _, kv := range vals {
		if kv.Tag == mapred.TagNull {
			r.nulls[key]++
		} else {
			r.rho[key] += kv.Val
		}
	}
	return nil
}

func (r *estimateReducer) Close(ctx *mapred.TaskContext) error {
	vHat := r.rho
	for x, m := range r.nulls {
		vHat[x] += float64(m) / r.epsSqrtM
	}
	for x := range vHat {
		vHat[x] /= r.p
	}
	// The reducer alone sorts a map: its input is m splits' pairs, not
	// one split's keys. Pooled scratch keeps concurrent builds from
	// allocating a (keys, counts) pair each.
	buf := wavelet.GetFreqBuffers()
	defer wavelet.PutFreqBuffers(buf)
	keys, counts := buf.Load(vHat)
	coefs := r.tf(ctx, nil, keys, counts)
	ctx.AddWork(float64(len(coefs))) // top-k heap pass
	r.coefs = wavelet.SelectTopK(coefs, r.k)
	return nil
}

func (r *estimateReducer) top() []wavelet.Coef { return r.coefs }
