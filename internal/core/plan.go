package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// RoundPlan is the single description of a build, for every method: r
// rounds of (map over splits → one reducer → an optional coordinator
// broadcast), r = 3 for H-WTopk and 1 for everything else. The plan owns
// the per-round jobs over one split-state store, the reducers, the
// between-round broadcast, the metric accumulation and the output; a
// one-round method is simply a plan whose NumRounds is 1 and whose
// Broadcast is always nil.
//
// One loop runs every build: Run(ctx, last, side) runs rounds
// rp.round+1 … last, each as
//
//	blob := plan.Broadcast(r)          // nil for round 1
//	side(ctx, r, blob, deliver)        // every split's partial, delivered
//	<the round's reducer over the delivered partials, in split order>
//
// The side is MapRoundSplits' code on some subset of splits wherever it
// runs: in this process over the plan's own state store (Algorithm.Run,
// RunRound) or on a worker fleet that ships the partials back (package
// dist). Every task derives its RNG from (seed, split id) and the reducer
// consumes splits in split order, so every side produces the same floats,
// the same state files and the same cost accounting, whichever worker ran
// which split. A round whose reduce fails leaves the plan failed: a later
// round's reducer may carry an earlier one's state forward (H-WTopk's
// candidate table), so a retry could count a split twice. Not safe for
// concurrent use.
type RoundPlan struct {
	spec   *methodSpec
	p      Params
	splits []hdfs.Split
	stages []stage
	state  *mapred.StateStore

	start            time.Time
	round            int   // last reduced round
	err              error // a failed reduce: every later call returns it
	metrics          Metrics
	pendingBroadcast int64 // modeled bytes charged to the next round
	top              []wavelet.Coef
}

// NewRoundPlan prepares a build of method over file. Unknown methods
// return ErrUnsupportedMethod (wrapped).
func NewRoundPlan(file *hdfs.File, method string, p Params) (*RoundPlan, error) {
	return newRoundPlan(file, method, p, mapred.NewStateStore())
}

// newRoundPlan wires the plan over a split-state store: an in-process
// build and the coordinator pass a fresh one, workers their per-job lease.
func newRoundPlan(file *hdfs.File, method string, p Params, state *mapred.StateStore) (*RoundPlan, error) {
	spec, err := lookup(method)
	if err != nil {
		return nil, err
	}
	p = p.Defaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	rp := &RoundPlan{
		spec:   spec,
		p:      p,
		splits: file.Splits(p.SplitSize),
		state:  state,
		start:  time.Now(),
	}
	e := &env{p: p, dim: spec.dim, domain: p.U, tf: transform1D(p.U), m: len(rp.splits), prob: sampleProb(p.Epsilon, file.NumRecords)}
	if spec.dim == 2 {
		e.domain, e.tf = p.U*p.U, transform2D(p.U)
	}
	rp.stages = spec.stages(e)
	return rp, nil
}

// NumRounds reports the method's round count.
func (rp *RoundPlan) NumRounds() int { return len(rp.stages) }

// NumSplits reports the per-round assignment unit count.
func (rp *RoundPlan) NumSplits() int { return len(rp.splits) }

// Candidates reports |R| — the candidate set H-WTopk broadcasts before
// round 3 (0 until then, and for one-round methods).
func (rp *RoundPlan) Candidates() int { return rp.metrics.CandidateSetSize }

// Metrics returns the accumulated modeled metrics (valid after the final
// round).
func (rp *RoundPlan) Metrics() Metrics { return rp.metrics }

// job builds round r's (1-based) mapred job.
func (rp *RoundPlan) job(r int) *mapred.Job {
	st := rp.stages[r-1]
	name := rp.spec.job
	if len(rp.stages) > 1 {
		name = fmt.Sprintf("%s-round%d", name, r)
	}
	return &mapred.Job{
		Name:      name,
		Splits:    rp.splits,
		Input:     st.input,
		NewMapper: func(hdfs.Split) mapred.Mapper { return st.mapper() },
		Combiner:  st.combiner,
		Reducer:   st.reducer,
		PairBytes: st.pairBytes,
		State:     rp.state,
		Seed:      rp.p.Seed,
	}
}

// Broadcast returns the blob workers need for round r (nil for round 1,
// for one-round methods, and unless round r-1 is the last reduced) and
// records its modeled broadcast cost against that round.
func (rp *RoundPlan) Broadcast(round int) []byte {
	if round < 2 || round > len(rp.stages) || round != rp.round+1 {
		return nil
	}
	blob, modeled := rp.stages[round-1].broadcast(rp)
	rp.pendingBroadcast = modeled
	return blob
}

// MapSide is the map side of one round wherever it runs. Given the round
// and its broadcast blob (nil in round 1) it maps every split and hands
// the partials to deliver as they arrive, from one goroutine at a time:
// in batches of any size and order, each split exactly once. deliver
// holds a batch to what every mapper emits and refuses it whole when one
// partial is not (see Run), so a side may map a refused batch's splits
// again and deliver them anew.
type MapSide func(ctx context.Context, round int, bcast []byte, deliver func([]SplitPartial) error) error

// Run runs rounds rp.round+1 … last, each as Broadcast → side → the
// round's reduce; side is called for round r only after round r-1's
// reduce has succeeded. A side's error stops the run at the last reduced
// round; a reduce's error leaves the plan failed.
//
// Partials arrive from worker frames, so deliver holds each to what every
// mapper emits — its split is one of the plan's and not yet delivered, its
// counters are finite and not negative, its keys ascend inside the
// stage's key bound, its values are finite and its tags are the stage's —
// before any reaches a reducer. A round's partials stay resident until
// its last one arrives, and are then reduced in split order.
func (rp *RoundPlan) Run(ctx context.Context, last int, side MapSide) error {
	for r := rp.round + 1; r <= last; r++ {
		if err := rp.nextRound(r); err != nil {
			return err
		}
		bcast := rp.Broadcast(r)
		if err := rp.reduce(ctx, r, func(deliver func([]SplitPartial) error) error {
			return side(ctx, r, bcast, deliver)
		}); err != nil {
			return err
		}
	}
	return nil
}

// RunRound runs the plan's rounds through round in this process: Run with
// the in-process map side.
func (rp *RoundPlan) RunRound(ctx context.Context, round int) error {
	return rp.Run(ctx, round, rp.local)
}

// local is the in-process map side: every split through forEachSplit,
// with the plan's own state store as the lease.
func (rp *RoundPlan) local(ctx context.Context, round int, _ []byte, deliver func([]SplitPartial) error) error {
	ids := make([]int, len(rp.splits))
	for i := range ids {
		ids[i] = i
	}
	parts, _, err := rp.mapSplits(ctx, round, ids)
	if err != nil {
		return err
	}
	return deliver(parts)
}

// nextRound rejects running rounds out of order, or on a failed plan.
func (rp *RoundPlan) nextRound(round int) error {
	if rp.err != nil {
		return rp.err
	}
	if round != rp.round+1 || round > rp.NumRounds() {
		return fmt.Errorf("core: %s: round %d after round %d of %d", rp.spec.name, round, rp.round, rp.NumRounds())
	}
	return nil
}

// ReduceRound reduces round from partials mapped elsewhere: they must
// cover every split exactly once, in any order, and are held to what
// Run's deliver holds them to.
func (rp *RoundPlan) ReduceRound(ctx context.Context, round int, parts []SplitPartial) error {
	return rp.reduce(ctx, round, func(deliver func([]SplitPartial) error) error { return deliver(parts) })
}

// reduce is a round's only reduce: collect delivers the round's partials,
// and the round's reducer merges them in split order, so float
// accumulation never depends on where or when a split was mapped.
func (rp *RoundPlan) reduce(ctx context.Context, round int, collect func(deliver func([]SplitPartial) error) error) error {
	if err := rp.nextRound(round); err != nil {
		return err
	}
	m := len(rp.splits)
	parts := make([]SplitPartial, m)
	have := make([]bool, m)
	got := 0
	deliver := func(batch []SplitPartial) error {
		for i := range batch {
			if err := rp.admit(round, &batch[i], have); err != nil {
				for _, part := range batch[:i] {
					have[part.SplitID] = false
				}
				return err
			}
			have[batch[i].SplitID] = true
		}
		for _, part := range batch {
			parts[part.SplitID] = part
		}
		got += len(batch)
		return nil
	}
	if err := collect(deliver); err != nil {
		return err
	}
	if got != m {
		return fmt.Errorf("core: %s round %d: have %d partials, want one per split (%d)", rp.spec.name, round, got, m)
	}
	res, err := mapred.RunReduce(ctx, rp.job(round), parts)
	if err != nil {
		rp.err = err
		return err
	}
	rp.metrics.addRound(res, rp.pendingBroadcast)
	rp.pendingBroadcast = 0
	rp.round++
	if rp.round == rp.NumRounds() {
		rp.top = rp.stages[rp.round-1].reducer.(topReducer).top()
		rp.metrics.WallTime = time.Since(rp.start)
	}
	return nil
}

// admit holds one delivered partial to what round's mappers emit (see
// Run); have marks the splits already delivered.
func (rp *RoundPlan) admit(round int, part *SplitPartial, have []bool) error {
	method, i := rp.spec.name, part.SplitID
	if i < 0 || i >= len(have) || have[i] {
		return fmt.Errorf("core: %s round %d: partial of split %d is outside [0, %d) or delivered twice", method, round, i, len(have))
	}
	if part.RecordsRead < 0 || part.BytesRead < 0 || part.InputBytes < 0 || !(part.CPUUnits >= 0 && part.CPUUnits <= math.MaxFloat64) {
		return fmt.Errorf("core: %s round %d: split %d (records %d, bytes %d, input %d, cpu %v) has a negative or non-finite counter", method, round, i, part.RecordsRead, part.BytesRead, part.InputBytes, part.CPUUnits)
	}
	keys, tags := rp.stages[round-1].keys, rp.stages[round-1].tags
	for j, kv := range part.Pairs {
		if (j > 0 && kv.Key < part.Pairs[j-1].Key) || kv.Key < 0 || kv.Key >= keys {
			return fmt.Errorf("core: %s round %d: split %d pair %d (key %d) is out of order or outside [0, %d)", method, round, i, j, kv.Key, keys)
		}
		if math.IsNaN(kv.Val) || math.IsInf(kv.Val, 0) || (kv.Tag != mapred.TagNone && !slices.Contains(tags, kv.Tag)) {
			return fmt.Errorf("core: %s round %d: split %d pair %d (key %d, value %v, tag %d) is not finite or has a tag the round does not emit", method, round, i, j, kv.Key, kv.Val, kv.Tag)
		}
	}
	return nil
}

// Output wraps a finished 1D build.
func (rp *RoundPlan) Output() (*Output, error) {
	if err := rp.finished(1); err != nil {
		return nil, err
	}
	return &Output{Rep: wavelet.NewRepresentation(rp.p.U, rp.top), Metrics: rp.metrics}, nil
}

// Output2D wraps a finished 2D build.
func (rp *RoundPlan) Output2D() (*Output2D, error) {
	if err := rp.finished(2); err != nil {
		return nil, err
	}
	return &Output2D{Rep: wavelet.NewRepresentation2D(rp.p.U, rp.top), Metrics: rp.metrics}, nil
}

func (rp *RoundPlan) finished(dim int) error {
	if err := rp.WantDim(dim); err != nil {
		return err
	}
	if rp.err != nil {
		return rp.err
	}
	if rp.round != rp.NumRounds() {
		return fmt.Errorf("core: %s: only %d of %d rounds reduced", rp.spec.name, rp.round, rp.NumRounds())
	}
	// Every delivered value is finite, but a key's values from two splits
	// can sum past the float range: such a histogram is never published.
	for _, c := range rp.top {
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return fmt.Errorf("core: %s: coefficient %d is %v: the reduce overflowed the float range", rp.spec.name, c.Index, c.Value)
		}
	}
	return nil
}

// WantDim rejects using the plan's method at the wrong dimensionality: 1
// for Output, 2 for Output2D.
func (rp *RoundPlan) WantDim(dim int) error {
	if rp.spec.dim != dim {
		return fmt.Errorf("core: %w: %s is a %dD method, not %dD", ErrUnsupportedMethod, rp.spec.name, rp.spec.dim, dim)
	}
	return nil
}

// ---------- worker half ----------

// WorkerState is a worker's per-job state lease: the round-versioned
// per-split state files a multi-round method persists between rounds.
// Safe for concurrent use (assignments for one job may run in parallel on
// disjoint splits).
type WorkerState struct {
	store *mapred.StateStore
}

// NewWorkerState returns an empty lease store.
func NewWorkerState() *WorkerState {
	return &WorkerState{store: mapred.NewStateStore()}
}

// Entries reports how many state files the lease holds.
func (ws *WorkerState) Entries() int { return ws.store.Len() }

// Bytes reports the total size of the state files the lease stands for —
// the paper's bytes (GET /dist/v1/state), not the bytes it holds.
func (ws *WorkerState) Bytes() int64 { return ws.store.TotalBytes() }

// splitStateKey is where round r's mapper persists split's state file for
// round r+1 to read. Files are round-versioned — a round never overwrites
// an earlier round's — so re-running any round's mapper is idempotent: the
// property the fleet relies on when an RPC fails after a worker already
// processed it, and what lets a fresh worker replay earlier rounds for a
// split whose original owner died.
func splitStateKey(round, split int) int { return 2*split + round - 1 }

// MapRoundSplits is a worker's half of a round: the round's map side over
// the given splits, one mergeable partial per split in splitIDs order.
//
// bcast is the coordinator's broadcast blob for this round (nil for round
// 1). A multi-round method reads the state earlier rounds produced from
// (and writes new state to) the lease ws; a one-round method has no state
// and may pass nil. Splits whose earlier-round state is missing — the
// worker never ran them, or its lease expired — are recovered by
// replaying the earlier rounds' map side locally (pairs discarded;
// determinism makes the replayed state byte-identical to the lost
// original); their ids are returned in replayed.
func MapRoundSplits(ctx context.Context, file *hdfs.File, method string, p Params, round int, bcast []byte, splitIDs []int, ws *WorkerState) (parts []SplitPartial, replayed []int, err error) {
	store := mapred.NewStateStore() // a one-round method leaves nothing in it
	if ws != nil {
		store = ws.store
	}
	rp, err := newRoundPlan(file, method, p, store)
	if err != nil {
		return nil, nil, err
	}
	if round < 1 || round > rp.NumRounds() {
		return nil, nil, fmt.Errorf("core: %s has no round %d", method, round)
	}
	if rp.NumRounds() > 1 && ws == nil {
		return nil, nil, fmt.Errorf("core: %s round %d needs a worker state lease", method, round)
	}
	if round >= 2 {
		if err := rp.stages[round-1].receive(bcast); err != nil {
			return nil, nil, err
		}
	}
	return rp.mapSplits(ctx, round, splitIDs)
}

// mapSplits runs round's map side over splitIDs once the round's
// broadcast is installed, reading and writing split state in rp.state.
// Splits are mapped concurrently across up to GOMAXPROCS goroutines and
// every per-split output is bit-identical to a serial run.
func (rp *RoundPlan) mapSplits(ctx context.Context, round int, splitIDs []int) (parts []SplitPartial, replayed []int, err error) {
	m := len(rp.splits)
	for _, id := range splitIDs {
		if id < 0 || id >= m {
			return nil, nil, fmt.Errorf("core: %s: split %d out of range [0, %d)", rp.spec.name, id, m)
		}
	}
	// The goroutines share one job per round; results land in
	// position-indexed slots and per-split state writes are disjoint.
	jobs := make([]*mapred.Job, round+1)
	for r := 1; r <= round; r++ {
		jobs[r] = rp.job(r)
	}
	parts = make([]SplitPartial, len(splitIDs))
	rep := make([]bool, len(splitIDs))
	err = forEachSplit(ctx, len(splitIDs), func(ctx context.Context, i int) error {
		id := splitIDs[i]
		var rerr error
		if rep[i], rerr = rp.ensureSplitState(ctx, jobs, round, id); rerr != nil {
			return rerr
		}
		parts[i], rerr = mapred.RunMapSplit(ctx, jobs[round], id)
		return rerr
	})
	if err != nil {
		return nil, nil, err
	}
	for i, id := range splitIDs {
		if rep[i] {
			replayed = append(replayed, id)
		}
	}
	return parts, replayed, nil
}

// ensureSplitState replays earlier rounds' map side for a split whose
// state this worker does not hold, oldest missing round first. Replay
// emissions are discarded — the coordinator already received them from the
// split's original owner (the round barrier guarantees every earlier round
// completed over all splits).
func (rp *RoundPlan) ensureSplitState(ctx context.Context, jobs []*mapred.Job, round, id int) (replayed bool, err error) {
	if round < 2 || rp.state.Value(splitStateKey(round-1, id)) != nil {
		return false, nil
	}
	if _, err := rp.ensureSplitState(ctx, jobs, round-1, id); err != nil {
		return false, err
	}
	if _, err := mapred.RunMapSplit(ctx, jobs[round-1], id); err != nil {
		return false, fmt.Errorf("replaying round %d for split %d: %w", round-1, id, err)
	}
	return true, nil
}

// MapSplits is MapRoundSplits for a one-round method.
func MapSplits(ctx context.Context, file *hdfs.File, method string, p Params, splitIDs []int) ([]SplitPartial, error) {
	parts, _, err := MapRoundSplits(ctx, file, method, p, 1, nil, splitIDs, nil)
	return parts, err
}

// MergePartials is ReduceRound + Output for a one-round 1D method: parts
// must cover every split of file exactly once.
func MergePartials(ctx context.Context, file *hdfs.File, method string, p Params, parts []SplitPartial) (*Output, error) {
	rp, err := NewRoundPlan(file, method, p)
	if err != nil {
		return nil, err
	}
	if err := rp.ReduceRound(ctx, 1, parts); err != nil {
		return nil, err
	}
	return rp.Output()
}

// NumSplits reports how many splits a build of file at the given params
// would process — the unit of distributed assignment.
func NumSplits(file *hdfs.File, p Params) int {
	return len(file.Splits(p.Defaults().SplitSize))
}
