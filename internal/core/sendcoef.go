package core

import (
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// Send-Coef is the second exact baseline (Section 3): each split computes
// its local wavelet coefficients w_{i,j} = <v_j, ψ_i> and emits every
// non-zero one; by linearity w_i = Σ_j w_{i,j}, so the reducer sums per
// index and selects the top-k. The paper shows it performs strictly worse
// than Send-V because each split's non-zero coefficient count
// (≈ |v_j|·log u, capped at u) exceeds its distinct-key count and grows
// with the domain size (Figure 12).
func sendCoefStages(e *env) []stage {
	return []stage{{
		input:   mapred.SequentialInput{},
		mapper:  func() mapred.Mapper { return &sendCoefMapper{splitCollector{domain: e.domain}, e.tf} },
		reducer: &sendCoefReducer{k: e.p.K},
		// Wire format: 4-byte coefficient index + 8-byte double.
		pairBytes: fixedBytes(12),
		keys:      e.domain,
	}}
}

type sendCoefMapper struct {
	splitCollector
	tf coefTransform
}

func (m *sendCoefMapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	sc, keys, counts := m.aggregate()
	defer splitScratchPool.Put(sc)
	sc.coefs = m.tf(ctx, sc.coefs[:0], keys, counts)
	for _, c := range sc.coefs {
		out.Emit(mapred.KV{Key: c.Index, Val: c.Value})
	}
	return nil
}

type sendCoefReducer struct {
	k     int
	sums  map[int64]float64
	coefs []wavelet.Coef
}

func (r *sendCoefReducer) Setup(*mapred.TaskContext) error {
	r.sums = make(map[int64]float64)
	return nil
}

func (r *sendCoefReducer) Reduce(_ *mapred.TaskContext, key int64, vals []mapred.KV) error {
	for _, kv := range vals {
		r.sums[key] += kv.Val
	}
	return nil
}

func (r *sendCoefReducer) Close(ctx *mapred.TaskContext) error {
	ctx.AddWork(float64(len(r.sums)))
	r.coefs = wavelet.SelectTopKMap(r.sums, r.k)
	return nil
}

func (r *sendCoefReducer) top() []wavelet.Coef { return r.coefs }
