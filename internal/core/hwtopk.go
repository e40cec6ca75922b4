package core

import (
	"fmt"
	"math"
	"slices"

	"wavelethist/internal/heap"
	"wavelethist/internal/mapred"
	"wavelethist/internal/topk"
	"wavelethist/internal/wavelet"
)

// H-WTopk ("Hadoop wavelet top-k") is the paper's exact algorithm
// (Section 3 + Appendix A): the two-sided modified TPUT instantiated as
// three MapReduce rounds.
//
//	Round 1: every split aggregates v_j, computes local coefficients with
//	         the O(|v_j| log u) transform, emits its k highest and k
//	         lowest (i, (j, w_ij)) pairs with the k-th ones marked, and
//	         persists unsent coefficients to its state file. The reducer
//	         forms partial sums ŵ_i with received-bit vectors F_i and
//	         derives the magnitude threshold T1.
//	Round 2: mappers read no input; they restore state and emit every
//	         unsent coefficient with |w_ij| > T1/m. The reducer refines
//	         τ± bounds with the T1/m guarantee, derives T2 and prunes the
//	         candidate set R.
//	Round 3: mappers emit unsent scores for items in R; the reducer
//	         finalizes exact sums and selects the top-k by magnitude.
//
// The paper's driver moves three values between rounds through Hadoop
// side channels: T1/m through the Job Configuration, R through the
// Distributed Cache, and the coordinator's partial sums through a local
// state file. The cost model charges the two broadcasts (8 B for T1/m,
// the encoded R) and no reducer reads its state back from disk, so here
// the rounds of one plan hand each other the values (hwRounds); only a
// worker process receives them, as the broadcast blob.
//
// The state file is kept as a value that can produce it (hwSplitState):
// in 1D v_j plus the coefficients of ranges two keys share, every other
// coefficient being one key's term in closed form. The cost model
// charges the paper's write, read and scans of the file.
//
// H-WTopk-2D is the identical protocol over packed 2D coefficient indices:
// any 2D coefficient is the sum of the corresponding coefficients of all
// splits, so the modified TPUT runs unchanged.
func hwTopkStages(e *env) []stage {
	h := &hwRounds{}
	pairBytes := fixedBytes(16) // (i, (j, w)): 4+4+8
	return []stage{{
		input: mapred.SequentialInput{},
		mapper: func() mapred.Mapper {
			m := &hwRound1Mapper{splitCollector: splitCollector{domain: e.domain}, k: e.p.K, transform: e.tf}
			if e.dim == 1 {
				m.u = e.p.U
			}
			return m
		},
		reducer:   &hwRound1Reducer{k: e.p.K, h: h},
		pairBytes: pairBytes,
		keys:      e.domain,
		tags:      []uint8{mapred.TagMarkHigh, mapred.TagMarkLow},
	}, {
		input: mapred.NoInput{},
		// Each map task copies T1/m when it starts, replays included.
		mapper:    func() mapred.Mapper { return hwRound2Mapper{thresh: h.t1OverM} },
		reducer:   &hwRound2Reducer{k: e.p.K, h: h},
		pairBytes: pairBytes,
		keys:      e.domain,
		// The paper ships T1/m in the Job Configuration: the cost model
		// charges its 8 bytes, the mapper factory reads the value.
		broadcast: func(*RoundPlan) ([]byte, int64) {
			h.t1OverM = h.cs.t1 / float64(e.m)
			return encodeHWBroadcast(2, h.t1OverM, nil), 8
		},
		receive: h.receive(2),
	}, {
		input:     mapred.NoInput{},
		mapper:    func() mapred.Mapper { return hwRound3Mapper{r: h.r} },
		reducer:   &hwRound3Reducer{k: e.p.K, h: h},
		pairBytes: pairBytes,
		keys:      e.domain,
		// The paper ships R in the Distributed Cache: the cost model
		// charges its encoded ids, the mapper factory reads the slice.
		broadcast: func(rp *RoundPlan) ([]byte, int64) {
			rp.metrics.CandidateSetSize = len(h.r)
			return encodeHWBroadcast(3, h.t1OverM, h.r), indexSetBytes(h.r)
		},
		receive: h.receive(3),
	}}
}

// hwRounds is what one plan's rounds hand each other: the coordinator's
// candidate table, built by round 1's reducer and pruned in place by
// round 2's, and what the mappers of rounds 2 and 3 read. On the
// coordinator the broadcasts set t1OverM and r; on a worker receive does.
type hwRounds struct {
	cs      *coordState
	t1OverM float64
	r       []int64 // the candidate set R, ascending
}

// Per-split state is round-versioned (splitStateKey): round 1 writes its
// unsent coefficients, round 2 writes the post-filter remainder and leaves
// the round-1 file intact.
func hwStateR1(split int) int { return splitStateKey(1, split) }
func hwStateR2(split int) int { return splitStateKey(2, split) }

// Round broadcasts are binary blobs shipped inside map RPCs: round 2
// carries T1/m, round 3 carries T1/m plus the candidate set R. T1/m rides
// along in round 3 (though the paper's drivers only ship it once) so a
// fresh worker can replay round 2 for an orphaned split without any other
// context — recovery is self-contained in the request.
func encodeHWBroadcast(round int, t1OverM float64, r []int64) []byte {
	b := mapred.AppendInt64(nil, int64(round))
	b = mapred.AppendFloat64(b, t1OverM)
	if round >= 3 {
		b = append(b, encodeIndexSet(r)...)
	}
	return b
}

// receive decodes round's broadcast blob on a worker, once per call of
// MapRoundSplits.
func (h *hwRounds) receive(round int) func([]byte) error {
	return func(b []byte) error {
		if len(b) < 16 {
			return fmt.Errorf("core: truncated round-%d broadcast", round)
		}
		tag, off := mapred.ReadInt64(b, 0)
		if int(tag) != round {
			return fmt.Errorf("core: broadcast is for round %d, want %d", tag, round)
		}
		h.t1OverM, off = mapred.ReadFloat64(b, off)
		if round < 3 {
			return nil
		}
		if len(b) <= off {
			return fmt.Errorf("core: round-3 broadcast missing candidate set")
		}
		r, err := decodeIndexSet(b[off:])
		h.r = r
		return err
	}
}

// ---------- Round 1 ----------

// hwRound1Mapper ships its split's k highest and k lowest local
// coefficients and keeps the rest as the split's state. In 1D (u > 0) it
// never materializes the coefficients: newHWSplitState1D offers them to
// the heaps straight from v_j. In 2D it transforms and keeps them all.
type hwRound1Mapper struct {
	splitCollector
	k         int
	u         int64 // the 1D domain; 0 in 2D
	transform coefTransform
}

func (m *hwRound1Mapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	sc, keys, counts := m.aggregate()
	defer splitScratchPool.Put(sc)

	var sel *twoSided
	var st *hwSplitState
	var total int
	if m.u != 0 {
		ctx.AddWork(transformWork(len(keys), m.u))
		sel = newTwoSided(m.k)
		st, total = newHWSplitState1D(keys, counts, m.u, sel)
	} else {
		sc.coefs = m.transform(ctx, sc.coefs[:0], keys, counts)
		sel = selectTwoSided(sc.coefs, m.k)
		st, total = &hwSplitState{coefs: slices.Clone(sc.coefs)}, len(sc.coefs)
	}
	ctx.AddWork(float64(total) * 2)

	sent := make([]int64, 0, 2*m.k)
	for rank, it := range sel.hi.Sorted() {
		tag := mapred.TagNone
		if rank == m.k-1 {
			tag = mapred.TagMarkHigh // the k-th highest coefficient
		}
		out.Emit(mapred.KV{Key: it.ID, Val: it.Score, Tag: tag})
		sent = append(sent, it.ID)
	}
	for rank, it := range sel.lo.Sorted() {
		tag := mapred.TagNone
		if rank == m.k-1 {
			tag = mapred.TagMarkLow // the k-th lowest coefficient
		}
		// The paper emits top-k and bottom-k as separate pair sets; an
		// item in both is emitted twice (the reducer's F_i bits dedupe
		// the partial-sum contribution).
		out.Emit(mapred.KV{Key: it.ID, Val: it.Score, Tag: tag})
		sent = append(sent, it.ID)
	}
	slices.Sort(sent)
	st.out = slices.Compact(sent)
	st.n = total - len(st.out)

	// The paper persists the unsent coefficients as the split's state
	// file; the cost model charges its local HDFS write (no network).
	ctx.State.Adopt(hwStateR1(ctx.SplitID), st)
	ctx.AddIOBytes(st.Size())
	return nil
}

// twoSided is the mapper's pair of heaps, the k highest and k lowest
// coefficients offered. A full heap refuses an item strictly weaker than
// its boundary, so such offers are skipped: the heaps end as if offered
// everything, in any order (ties go to the lower id). The tests are
// negated comparisons so that a NaN is still offered.
type twoSided struct {
	hi           *heap.TopK
	lo           *heap.BottomK
	hiMin, loMax float64
}

func newTwoSided(k int) *twoSided {
	return &twoSided{hi: heap.NewTopK(k), lo: heap.NewBottomK(k), hiMin: math.Inf(-1), loMax: math.Inf(1)}
}

func (s *twoSided) offer(id int64, v float64) {
	it := heap.Item{ID: id, Score: v}
	if !(v < s.hiMin) && s.hi.Push(it) && s.hi.Full() {
		b, _ := s.hi.Min()
		s.hiMin = b.Score
	}
	if !(v > s.loMax) && s.lo.Push(it) && s.lo.Full() {
		b, _ := s.lo.Max()
		s.loMax = b.Score
	}
}

// selectTwoSided offers every coefficient to fresh heaps.
func selectTwoSided(coefs []wavelet.Coef, k int) *twoSided {
	s := newTwoSided(k)
	for _, c := range coefs {
		s.offer(c.Index, c.Value)
	}
	return s
}

// refuses reports whether both heaps would refuse a coefficient of
// magnitude a, of either sign.
func (s *twoSided) refuses(a float64) bool { return a < s.hiMin && -a > s.loMax }

// hwRound1Reducer builds ŵ_i and F_i and computes T1, then hands the
// candidate table to round 2.
type hwRound1Reducer struct {
	k         int
	h         *hwRounds
	cs        *coordState
	tildeHigh []float64 // w̃⁺_j floored at 0 (zeros pad sparse splits)
	tildeLow  []float64 // w̃⁻_j capped at 0
}

func (r *hwRound1Reducer) Setup(ctx *mapred.TaskContext) error {
	r.cs = &coordState{m: ctx.NumSplits, entries: make(map[int64]*coordEntry)}
	r.tildeHigh = make([]float64, ctx.NumSplits)
	r.tildeLow = make([]float64, ctx.NumSplits)
	return nil
}

func (r *hwRound1Reducer) Reduce(ctx *mapred.TaskContext, key int64, vals []mapred.KV) error {
	j := ctx.SplitID // the paper's (i, (j, w_ij)): the batch names j
	for _, kv := range vals {
		switch kv.Tag {
		case mapred.TagMarkHigh:
			r.tildeHigh[j] = math.Max(kv.Val, 0)
		case mapred.TagMarkLow:
			r.tildeLow[j] = math.Min(kv.Val, 0)
		}
	}
	// An item in both the top-k and bottom-k sets arrives twice from its
	// split; add counts it once.
	r.cs.entry(key).add(j, vals)
	return nil
}

func (r *hwRound1Reducer) Close(ctx *mapred.TaskContext) error {
	// τ⁺(x) = ŵ_x + Σ_{j not received} w̃⁺_j (and symmetrically τ⁻);
	// computed as total minus the received splits' contributions.
	var totalHigh, totalLow float64
	for j := range r.tildeHigh {
		totalHigh += r.tildeHigh[j]
		totalLow += r.tildeLow[j]
	}
	t1h := heap.NewTopK(r.k)
	for id, e := range r.cs.entries {
		hiMiss, loMiss := totalHigh, totalLow
		e.recv.ForEachSet(func(j int) {
			hiMiss -= r.tildeHigh[j]
			loMiss -= r.tildeLow[j]
		})
		tauPlus := e.wHat + hiMiss
		tauMinus := e.wHat + loMiss
		t1h.Push(heap.Item{ID: id, Score: topk.MagnitudeLowerBound(tauPlus, tauMinus)})
		ctx.AddWork(float64(r.cs.m) / 8)
	}
	if t1h.Full() {
		it, _ := t1h.Min()
		r.cs.t1 = it.Score
	}
	r.h.cs = r.cs
	return nil
}

// ---------- Round 2 ----------

// hwRound2Mapper reads no input; it emits round-1 state coefficients above
// thresh = T1/m and keeps the remainder as its round-2 state.
type hwRound2Mapper struct{ thresh float64 }

func (hwRound2Mapper) Setup(*mapred.TaskContext) error { return nil }
func (hwRound2Mapper) Map(*mapred.TaskContext, []int64, *mapred.Emitter) error {
	return nil
}

func (m hwRound2Mapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	st, err := hwState(ctx, hwStateR1(ctx.SplitID))
	if err != nil {
		return err
	}
	// The cost model charges the paper's read and scan of the file.
	ctx.AddIOBytes(st.Size())
	ctx.AddWork(float64(st.n))
	rest := st.round2(m.thresh, func(id int64, v float64) {
		out.Emit(mapred.KV{Key: id, Val: v})
	})
	ctx.State.Adopt(hwStateR2(ctx.SplitID), rest)
	return nil
}

// hwState is the split state an earlier round kept under key.
func hwState(ctx *mapred.TaskContext, key int) (*hwSplitState, error) {
	st, ok := ctx.State.Value(key).(*hwSplitState)
	if !ok {
		return nil, fmt.Errorf("core: split %d has no H-WTopk state", ctx.SplitID)
	}
	return st, nil
}

// hwRound2Reducer adds the pairs that cleared T1/m to round 1's table,
// refines bounds, computes T2 and prunes the table to the candidate set R.
type hwRound2Reducer struct {
	k int
	h *hwRounds
}

func (*hwRound2Reducer) Setup(*mapred.TaskContext) error { return nil }

func (r *hwRound2Reducer) Reduce(ctx *mapred.TaskContext, key int64, vals []mapred.KV) error {
	r.h.cs.entry(key).add(ctx.SplitID, vals)
	return nil
}

func (r *hwRound2Reducer) Close(ctx *mapred.TaskContext) error {
	cs := r.h.cs
	thresh := cs.t1 / float64(cs.m)
	// Refined bounds: unsent (j, x) now guarantees |w_xj| <= T1/m, so
	// τ± = ŵ_x ± ‖F_x‖·T1/m (Appendix A).
	type refined struct {
		plus, minus float64
	}
	bounds := make(map[int64]refined, len(cs.entries))
	t2h := heap.NewTopK(r.k)
	for id, e := range cs.entries {
		missing := float64(cs.m - e.recv.Count())
		tp := e.wHat + missing*thresh
		tm := e.wHat - missing*thresh
		bounds[id] = refined{tp, tm}
		t2h.Push(heap.Item{ID: id, Score: topk.MagnitudeLowerBound(tp, tm)})
		ctx.AddWork(1)
	}
	var t2 float64
	if t2h.Full() {
		it, _ := t2h.Min()
		t2 = it.Score
	}
	// Prune: drop x when even max(|τ⁺|, |τ⁻|) cannot reach T2.
	var cands []int64
	for id, b := range bounds {
		if topk.MagnitudeUpperBound(b.plus, b.minus) < t2 {
			delete(cs.entries, id)
		} else {
			cands = append(cands, id)
		}
	}
	// Canonical order: bounds is a map, and an iteration-ordered R would
	// make the round-3 broadcast bytes vary run to run — breaking both
	// broadcast-size determinism and the workers' broadcast-hashed
	// partial-cache keys.
	slices.Sort(cands)
	r.h.r = cands
	return nil
}

// ---------- Round 3 ----------

// hwRound3Mapper emits unsent coefficients for the candidate indices r
// (R, ascending).
type hwRound3Mapper struct{ r []int64 }

func (hwRound3Mapper) Setup(*mapred.TaskContext) error { return nil }
func (hwRound3Mapper) Map(*mapred.TaskContext, []int64, *mapred.Emitter) error {
	return nil
}

func (m hwRound3Mapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	st, err := hwState(ctx, hwStateR2(ctx.SplitID))
	if err != nil {
		return err
	}
	// Everything left in the file was never communicated (rounds 1-2
	// left sent coefficients out), so emit iff it is a candidate.
	for _, id := range m.r {
		if v, ok := st.lookup(id); ok {
			out.Emit(mapred.KV{Key: id, Val: v})
		}
	}
	// The cost model charges the paper's read and scan of the file.
	ctx.AddIOBytes(st.Size())
	ctx.AddWork(float64(st.n))
	return nil
}

// hwRound3Reducer finalizes exact sums over R and selects the top-k
// (dimension-agnostic: it yields raw coefficients; the driver wraps them
// into a 1D or 2D representation).
type hwRound3Reducer struct {
	k     int
	h     *hwRounds
	coefs []wavelet.Coef
}

func (*hwRound3Reducer) Setup(*mapred.TaskContext) error { return nil }

func (r *hwRound3Reducer) Reduce(ctx *mapred.TaskContext, key int64, vals []mapred.KV) error {
	e := r.h.cs.entries[key]
	if e == nil {
		// Round-3 mappers only emit candidates: the partial is corrupt.
		return fmt.Errorf("hwtopk: round-3 pair for non-candidate %d", key)
	}
	e.add(ctx.SplitID, vals)
	return nil
}

func (r *hwRound3Reducer) Close(ctx *mapred.TaskContext) error {
	coefs := make([]wavelet.Coef, 0, len(r.h.cs.entries))
	for id, e := range r.h.cs.entries {
		// Round 3 made candidate sums exact (every split's score was
		// either shipped in rounds 1-3 or is zero), so ŵ = 0 is a true
		// zero coefficient. Drop it: Send-V's sparse transform never
		// emits zeros, and padding the top-k with one would otherwise
		// make the two exact methods disagree when k exceeds the number
		// of non-zero coefficients.
		if e.wHat == 0 {
			continue
		}
		coefs = append(coefs, wavelet.Coef{Index: id, Value: e.wHat})
	}
	ctx.AddWork(float64(len(coefs)))
	r.coefs = wavelet.SelectTopK(coefs, r.k)
	return nil
}

func (r *hwRound3Reducer) top() []wavelet.Coef { return r.coefs }
