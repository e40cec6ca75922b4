package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"wavelethist/internal/hdfs"
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
//	         forms partial sums ŵ_i with received-bit vectors F_i,
//	         derives the magnitude threshold T1, and persists its state.
//	Round 2: mappers read no input; they restore state and emit every
//	         unsent coefficient with |w_ij| > T1/m (shipped via the Job
//	         Configuration). The reducer refines τ± bounds with the
//	         T1/m guarantee, derives T2, prunes the candidate set R, and
//	         the driver places R in the Distributed Cache.
//	Round 3: mappers emit unsent scores for items in R; the reducer
//	         finalizes exact sums and selects the top-k by magnitude.
//
// H-WTopk-2D is the identical protocol over packed 2D coefficient indices:
// any 2D coefficient is the sum of the corresponding coefficients of all
// splits, so the modified TPUT runs unchanged.
func hwTopkStages(e *env) []stage {
	red1 := &hwRound1Reducer{k: e.p.K}
	red2 := &hwRound2Reducer{k: e.p.K}
	pairBytes := fixedBytes(16) // (i, (j, w)): 4+4+8
	var t1OverM float64         // set by round 2's broadcast, shipped again with round 3's
	return []stage{{
		input: mapred.SequentialInput{},
		mapper: func() mapred.Mapper {
			return &hwRound1Mapper{splitCollector: splitCollector{domain: e.domain}, k: e.p.K, transform: e.tf}
		},
		reducer:   red1,
		pairBytes: pairBytes,
	}, {
		input:     mapred.NoInput{},
		mapper:    func() mapred.Mapper { return hwRound2Mapper{} },
		reducer:   red2,
		pairBytes: pairBytes,
		// Coordinator -> mappers: T1/m via the Job Configuration (8
		// modeled bytes).
		broadcast: func(rp *RoundPlan) ([]byte, int64) {
			t1OverM = red1.T1 / float64(e.m)
			rp.setThreshold(t1OverM)
			return encodeHWBroadcast(2, t1OverM, nil), 8
		},
		receive: hwReceive(2),
	}, {
		input:     mapred.NoInput{},
		mapper:    func() mapred.Mapper { return hwRound3Mapper{} },
		reducer:   &hwRound3Reducer{k: e.p.K},
		pairBytes: pairBytes,
		// Coordinator -> mappers: R via the Distributed Cache.
		broadcast: func(rp *RoundPlan) ([]byte, int64) {
			rp.metrics.CandidateSetSize = len(red2.R)
			rp.cache.Put(cacheRName, encodeIndexSet(red2.R))
			return encodeHWBroadcast(3, t1OverM, red2.R), indexSetBytes(red2.R)
		},
		receive: hwReceive(3),
	}}
}

const (
	confT1OverM = "hwtopk.t1.over.m"
	cacheRName  = "hwtopk.candidates"
)

// Per-split state is round-versioned (splitStateKey): round 1 writes its
// unsent coefficients, round 2 writes the post-filter remainder and leaves
// the round-1 file intact.
func hwStateR1(split int) int { return splitStateKey(1, split) }
func hwStateR2(split int) int { return splitStateKey(2, split) }

// setThreshold installs T1/m into the Job Configuration.
func (rp *RoundPlan) setThreshold(t1OverM float64) {
	rp.conf[confT1OverM] = strconv.FormatFloat(t1OverM, 'g', -1, 64)
}

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

// hwReceive installs round's broadcast blob on a worker.
func hwReceive(round int) func(*RoundPlan, []byte) error {
	return func(rp *RoundPlan, b []byte) error {
		if len(b) < 16 {
			return fmt.Errorf("core: truncated round-%d broadcast", round)
		}
		tag, off := mapred.ReadInt64(b, 0)
		if int(tag) != round {
			return fmt.Errorf("core: broadcast is for round %d, want %d", tag, round)
		}
		t1OverM, off := mapred.ReadFloat64(b, off)
		rp.setThreshold(t1OverM)
		if round >= 3 {
			if len(b) <= off {
				return fmt.Errorf("core: round-3 broadcast missing candidate set")
			}
			rp.cache.Put(cacheRName, b[off:])
		}
		return nil
	}
}

// ---------- Round 1 ----------

type hwRound1Mapper struct {
	splitCollector
	k         int
	transform coefTransform
}

func (m *hwRound1Mapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	sc, keys, counts := m.aggregate()
	defer splitScratchPool.Put(sc)
	coefs := m.transform(ctx, sc.coefs[:0], keys, counts)
	sc.coefs = coefs
	j := int32(ctx.SplitID)

	hi, lo := heap.NewTopK(m.k), heap.NewBottomK(m.k)
	selectTwoSided(coefs, hi, lo)
	ctx.AddWork(float64(len(coefs)) * 2)

	sent := sc.sent[:0]
	for rank, it := range hi.Sorted() {
		tag := mapred.TagNone
		if rank == m.k-1 {
			tag = mapred.TagMarkHigh // the k-th highest coefficient
		}
		out.Emit(mapred.KV{Key: it.ID, Val: it.Score, Src: j, Tag: tag})
		sent = append(sent, it.ID)
	}
	for rank, it := range lo.Sorted() {
		tag := mapred.TagNone
		if rank == m.k-1 {
			tag = mapred.TagMarkLow // the k-th lowest coefficient
		}
		// The paper emits top-k and bottom-k as separate pair sets; an
		// item in both is emitted twice (the reducer's F_i bits dedupe
		// the partial-sum contribution).
		out.Emit(mapred.KV{Key: it.ID, Val: it.Score, Src: j, Tag: tag})
		sent = append(sent, it.ID)
	}
	slices.Sort(sent)
	sent = slices.Compact(sent)
	sc.sent = sent

	// Persist unsent coefficients as the split's state file: the <= 2k
	// sent ids merge against the index-ordered coefficients.
	state := encodeCoefs(coefs, sent)
	ctx.State.Adopt(hwStateR1(ctx.SplitID), state)
	ctx.AddIOBytes(int64(len(state))) // local HDFS write (no network)
	return nil
}

// selectTwoSided offers coefs to the empty heaps hi and lo. A full heap
// refuses an item strictly weaker than its boundary, so such offers are
// skipped: the heaps end as if offered everything. The tests are negated
// comparisons so that a NaN is still offered.
func selectTwoSided(coefs []wavelet.Coef, hi *heap.TopK, lo *heap.BottomK) {
	hiMin, loMax := math.Inf(-1), math.Inf(1)
	for _, c := range coefs {
		it := heap.Item{ID: c.Index, Score: c.Value}
		if !(c.Value < hiMin) && hi.Push(it) && hi.Full() {
			b, _ := hi.Min()
			hiMin = b.Score
		}
		if !(c.Value > loMax) && lo.Push(it) && lo.Full() {
			b, _ := lo.Max()
			loMax = b.Score
		}
	}
}

// hwRound1Reducer builds ŵ_i and F_i, computes T1, persists state.
type hwRound1Reducer struct {
	k         int
	m         int
	entries   map[int64]*coordEntry
	tildeHigh []float64 // w̃⁺_j floored at 0 (zeros pad sparse splits)
	tildeLow  []float64 // w̃⁻_j capped at 0
	T1        float64
}

func (r *hwRound1Reducer) Setup(ctx *mapred.TaskContext) error {
	r.m = ctx.NumSplits
	r.entries = make(map[int64]*coordEntry)
	r.tildeHigh = make([]float64, r.m)
	r.tildeLow = make([]float64, r.m)
	return nil
}

func (r *hwRound1Reducer) Reduce(_ *mapred.TaskContext, key int64, vals []mapred.KV) error {
	e := r.entries[key]
	if e == nil {
		e = &coordEntry{recv: newBitset(r.m)}
		r.entries[key] = e
	}
	for _, kv := range vals {
		j := int(kv.Src)
		switch kv.Tag {
		case mapred.TagMarkHigh:
			r.tildeHigh[j] = math.Max(kv.Val, 0)
		case mapred.TagMarkLow:
			r.tildeLow[j] = math.Min(kv.Val, 0)
		}
		if e.recv.Get(j) {
			continue // duplicate: item was in both the top-k and bottom-k sets
		}
		e.recv.Set(j)
		e.wHat += kv.Val
	}
	return nil
}

func (r *hwRound1Reducer) Close(ctx *mapred.TaskContext) error {
	// τ⁺(x) = ŵ_x + Σ_{j not received} w̃⁺_j (and symmetrically τ⁻);
	// computed as total minus the received splits' contributions.
	var totalHigh, totalLow float64
	for j := 0; j < r.m; j++ {
		totalHigh += r.tildeHigh[j]
		totalLow += r.tildeLow[j]
	}
	t1h := heap.NewTopK(r.k)
	for id, e := range r.entries {
		hiMiss, loMiss := totalHigh, totalLow
		e.recv.ForEachSet(func(j int) {
			hiMiss -= r.tildeHigh[j]
			loMiss -= r.tildeLow[j]
		})
		tauPlus := e.wHat + hiMiss
		tauMinus := e.wHat + loMiss
		t1h.Push(heap.Item{ID: id, Score: topk.MagnitudeLowerBound(tauPlus, tauMinus)})
		ctx.AddWork(float64(r.m) / 8)
	}
	if t1h.Full() {
		it, _ := t1h.Min()
		r.T1 = it.Score
	}
	cs := &coordState{m: r.m, t1: r.T1, entries: r.entries}
	ctx.State.Put(mapred.ReducerState, cs.encode())
	return nil
}

// ---------- Round 2 ----------

// hwRound2Mapper reads no input; it emits round-1 state coefficients above
// T1/m and writes the remainder as its round-2 state.
type hwRound2Mapper struct{}

func (hwRound2Mapper) Setup(*mapred.TaskContext) error { return nil }
func (hwRound2Mapper) Map(*mapred.TaskContext, hdfs.Record, *mapred.Emitter) error {
	return nil
}

func (hwRound2Mapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	thresh, err := strconv.ParseFloat(ctx.Conf[confT1OverM], 64)
	if err != nil {
		return fmt.Errorf("hwtopk: missing %s: %w", confT1OverM, err)
	}
	state := ctx.State.Get(hwStateR1(ctx.SplitID))
	st, err := openCoefState(state)
	if err != nil {
		return err
	}
	ctx.AddIOBytes(int64(len(state))) // local state-file read
	// Few coefficients clear T1/m, so the remainder is copied as the
	// runs of records between them, never decoded.
	var keep []byte
	run := 0
	for i := 0; i < st.n; i++ {
		if v := st.value(i); math.Abs(v) > thresh {
			out.Emit(mapred.KV{Key: st.index(i), Val: v, Src: int32(ctx.SplitID)})
			if keep == nil {
				keep = make([]byte, coefStateHeader, coefStateHeader+len(st.b))
			}
			keep = append(keep, st.b[run:coefRecordBytes*i]...)
			run = coefRecordBytes * (i + 1)
		}
	}
	if keep == nil {
		// Often none clears: the remainder is the round-1 file's header
		// and n records, adopted under a second key (no round writes a
		// state buffer after adopting it).
		end := coefStateHeader + len(st.b)
		keep = state[:end:end]
	} else {
		keep = append(keep, st.b[run:]...)
		binary.LittleEndian.PutUint64(keep, uint64((len(keep)-coefStateHeader)/coefRecordBytes))
	}
	ctx.AddWork(float64(st.n))
	ctx.State.Adopt(hwStateR2(ctx.SplitID), keep)
	return nil
}

// hwRound2Reducer refines bounds, computes T2, prunes R.
type hwRound2Reducer struct {
	k  int
	cs *coordState
	// R is the surviving candidate set (read by the driver after the
	// round to populate the Distributed Cache).
	R []int64
}

func (r *hwRound2Reducer) Setup(ctx *mapred.TaskContext) error {
	cs, err := decodeCoordState(ctx.State.Get(mapred.ReducerState))
	if err != nil {
		return err
	}
	r.cs = cs
	return nil
}

func (r *hwRound2Reducer) Reduce(_ *mapred.TaskContext, key int64, vals []mapred.KV) error {
	e := r.cs.entries[key]
	if e == nil {
		e = &coordEntry{recv: newBitset(r.cs.m)}
		r.cs.entries[key] = e
	}
	for _, kv := range vals {
		j := int(kv.Src)
		if e.recv.Get(j) {
			continue
		}
		e.recv.Set(j)
		e.wHat += kv.Val
	}
	return nil
}

func (r *hwRound2Reducer) Close(ctx *mapred.TaskContext) error {
	m := float64(r.cs.m)
	thresh := r.cs.t1 / m
	// Refined bounds: unsent (j, x) now guarantees |w_xj| <= T1/m, so
	// τ± = ŵ_x ± ‖F_x‖·T1/m (Appendix A).
	type refined struct {
		plus, minus float64
	}
	bounds := make(map[int64]refined, len(r.cs.entries))
	t2h := heap.NewTopK(r.k)
	for id, e := range r.cs.entries {
		missing := float64(r.cs.m - e.recv.Count())
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
	for id, b := range bounds {
		if topk.MagnitudeUpperBound(b.plus, b.minus) < t2 {
			delete(r.cs.entries, id)
		} else {
			r.R = append(r.R, id)
		}
	}
	// Canonical order: bounds is a map, and an iteration-ordered R would
	// make the round-3 broadcast bytes vary run to run — breaking both
	// broadcast-size determinism and the workers' broadcast-hashed
	// partial-cache keys.
	slices.Sort(r.R)
	ctx.State.Put(mapred.ReducerState, r.cs.encode())
	return nil
}

// ---------- Round 3 ----------

// hwRound3Mapper emits unsent coefficients for candidate indices in R
// (read from the Distributed Cache).
type hwRound3Mapper struct{}

func (hwRound3Mapper) Setup(*mapred.TaskContext) error { return nil }
func (hwRound3Mapper) Map(*mapred.TaskContext, hdfs.Record, *mapred.Emitter) error {
	return nil
}

func (hwRound3Mapper) Close(ctx *mapred.TaskContext, out *mapred.Emitter) error {
	r, err := decodeIndexSet(ctx.Cache.Get(cacheRName))
	if err != nil {
		return err
	}
	state := ctx.State.Get(hwStateR2(ctx.SplitID))
	st, err := openCoefState(state)
	if err != nil {
		return err
	}
	ctx.AddIOBytes(int64(len(state)))
	// Everything left in state was never communicated (rounds 1-2
	// removed sent coefficients), so emit iff it is a candidate: each id
	// of the sorted R is binary-searched in the index-ordered state past
	// the previous hit, O(|R| log n) rather than a scan of all n.
	lo := 0
	for _, idx := range r {
		lo += sort.Search(st.n-lo, func(i int) bool { return st.index(lo+i) >= idx })
		if lo == st.n {
			break
		}
		if st.index(lo) == idx {
			out.Emit(mapred.KV{Key: idx, Val: st.value(lo), Src: int32(ctx.SplitID)})
			lo++
		}
	}
	// The cost model charges the paper's scan of the state file.
	ctx.AddWork(float64(st.n))
	return nil
}

// hwRound3Reducer finalizes exact sums over R and selects the top-k
// (dimension-agnostic: it yields raw coefficients; the driver wraps them
// into a 1D or 2D representation).
type hwRound3Reducer struct {
	k     int
	cs    *coordState
	coefs []wavelet.Coef
}

func (r *hwRound3Reducer) Setup(ctx *mapred.TaskContext) error {
	cs, err := decodeCoordState(ctx.State.Get(mapred.ReducerState))
	if err != nil {
		return err
	}
	r.cs = cs
	return nil
}

func (r *hwRound3Reducer) Reduce(_ *mapred.TaskContext, key int64, vals []mapred.KV) error {
	e := r.cs.entries[key]
	if e == nil {
		// Cannot happen: round-3 mappers only emit candidates.
		return fmt.Errorf("hwtopk: round-3 pair for non-candidate %d", key)
	}
	for _, kv := range vals {
		j := int(kv.Src)
		if e.recv.Get(j) {
			continue
		}
		e.recv.Set(j)
		e.wHat += kv.Val
	}
	return nil
}

func (r *hwRound3Reducer) Close(ctx *mapred.TaskContext) error {
	coefs := make([]wavelet.Coef, 0, len(r.cs.entries))
	for id, e := range r.cs.entries {
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
