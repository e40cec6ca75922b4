package core

import (
	"math"

	"wavelethist/internal/mapred"
)

// The three sampling algorithms of Section 4. All use the paper's
// RandomInputFile format: split j samples p·n_j records without
// replacement (p = 1/(ε²n), capped at 1), so no algorithm scans its whole
// split — the property that makes sampling the only one-round strategy
// that also avoids reading the entire dataset.

// sampleProb returns p = min(1, 1/(ε²n)).
func sampleProb(eps float64, n int64) float64 {
	p := 1 / (eps * eps * float64(n))
	if p > 1 {
		return 1
	}
	return p
}

// ---------- Basic-S ----------

// Basic-S emits every sampled key: (x, 1) pairs aggregated by the Combine
// function when enabled (the paper's "straightforward improvement", whose
// effectiveness depends entirely on the data distribution).
func basicSStages(e *env) []stage {
	st := sampledStage(e, func() mapred.Mapper { return basicSMapper{u: e.domain} })
	if e.p.CombineEnabled {
		st.combiner = sumCombiner
	}
	return []stage{st}
}

// sampledStage is the round Basic-S and Improved-S share: level-1 sampled
// input, (x, count) pairs of 4+4 bytes, and the v̂ = ŝ/p estimator.
func sampledStage(e *env, mapper func() mapred.Mapper) stage {
	return stage{
		input:     mapred.RandomSampleInput{P: e.prob},
		mapper:    mapper,
		reducer:   &estimateReducer{k: e.p.K, p: e.prob, tf: e.tf},
		pairBytes: fixedBytes(8),
		keys:      e.domain,
	}
}

type basicSMapper struct {
	u int64
}

func (m basicSMapper) Setup(*mapred.TaskContext) error { return nil }

func (m basicSMapper) Map(ctx *mapred.TaskContext, keys []int64, out *mapred.Emitter) error {
	for _, k := range keys {
		if err := checkDomain(k, m.u); err != nil {
			return err
		}
		out.Emit(mapred.KV{Key: k, Val: 1})
	}
	return nil
}

func (basicSMapper) Close(*mapred.TaskContext, *mapred.Emitter) error { return nil }

func sumCombiner(key int64, vals []mapred.KV) []mapred.KV {
	var s float64
	for _, kv := range vals {
		s += kv.Val
	}
	return []mapred.KV{{Key: key, Val: s}}
}

// ---------- Improved-S ----------

// Improved-S drops sampled keys with small local counts: split j emits
// (x, s_j(x)) only when s_j(x) >= ε·t_j, capping per-split communication
// at 1/ε pairs — but biasing the estimator by up to εn (Section 4).
func improvedSStages(e *env) []stage {
	return []stage{sampledStage(e, func() mapred.Mapper {
		return &improvedSMapper{splitCollector{domain: e.domain}, e.p.Epsilon}
	})}
}

type improvedSMapper struct {
	splitCollector
	eps float64
}

func (m *improvedSMapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	threshold := m.eps * float64(len(m.sc.keys)) // ε·t_j
	sc, keys, counts := m.aggregate()
	defer splitScratchPool.Put(sc)
	for i, x := range keys {
		if counts[i] >= threshold {
			out.Emit(mapred.KV{Key: x, Val: counts[i]})
		}
	}
	ctx.AddWork(float64(len(keys)))
	return nil
}

// ---------- TwoLevel-S ----------

// TwoLevel-S is the paper's new two-level sampling algorithm (Section 4,
// Figures 3-4): after level-1 sampling, split j emits (x, s_j(x)) when
// s_j(x) >= 1/(ε√m) and otherwise emits (x, NULL) with probability
// ε√m·s_j(x) — importance sampling proportional to frequency. The reducer
// reconstructs the unbiased estimator ŝ(x) = ρ(x) + M(x)/(ε√m) with
// standard deviation <= 1/ε (Theorem 1), for O(√m/ε) expected
// communication (Theorem 3). TwoLevel-S-2D is the same job over packed
// keys (with the caveat the paper notes about sparsity hurting relative
// error).
func twoLevelSStages(e *env) []stage {
	kb := e.keyBytes()
	return []stage{{
		input: mapred.RandomSampleInput{P: e.prob},
		mapper: func() mapred.Mapper {
			return &twoLevelSMapper{splitCollector{domain: e.domain}, e.p.Epsilon, e.m}
		},
		reducer: &estimateReducer{
			k: e.p.K, p: e.prob, tf: e.tf,
			epsSqrtM: e.p.Epsilon * math.Sqrt(float64(e.m)),
		},
		// (x, s_j(x)) ships key + 4-byte count; (x, NULL) ships the key
		// only (the paper's communication analysis counts keys).
		pairBytes: func(kv mapred.KV) int {
			if kv.Tag == mapred.TagNull {
				return kb
			}
			return kb + 4
		},
		keys: e.domain,
		tags: []uint8{mapred.TagNull},
	}}
}

type twoLevelSMapper struct {
	splitCollector
	eps float64
	m   int
}

func (t *twoLevelSMapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	epsSqrtM := t.eps * math.Sqrt(float64(t.m))
	threshold := 1 / epsSqrtM
	// Keys come back ascending, so the Bernoulli draws consume the task's
	// RNG stream in a deterministic order.
	sc, keys, counts := t.aggregate()
	defer splitScratchPool.Put(sc)
	for i, x := range keys {
		s := counts[i]
		if s >= threshold {
			out.Emit(mapred.KV{Key: x, Val: s})
		} else if ctx.RNG.Bernoulli(epsSqrtM * s) {
			out.Emit(mapred.KV{Key: x, Tag: mapred.TagNull})
		}
	}
	ctx.AddWork(float64(len(keys)))
	return nil
}
