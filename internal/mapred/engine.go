package mapred

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"wavelethist/internal/zipf"
)

// Engine execution. Mappers run concurrently in a bounded worker pool but
// the run is fully deterministic: every task derives its RNG from
// (job seed, split id), and the reducer consumes mapper outputs in split
// order, so float accumulation order never depends on scheduling.

// mapOutput is one completed map task: its sorted+combined pairs plus its
// work profile.
type mapOutput struct {
	pairs   []KV
	metrics TaskMetrics
	err     error
}

// RunContext executes one MapReduce round, aborting early (with ctx.Err())
// when the context is canceled. Cancellation is checked between reducer
// batches and periodically inside map-side record scans.
func RunContext(ctx context.Context, job *Job) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	job.fillDefaults()
	counters := &Counters{}
	m := len(job.Splits)
	rt, err := startReduce(job, counters)
	if err != nil {
		return nil, err
	}

	parallelism := job.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > m {
		parallelism = m
	}

	outputs := make([]*mapOutput, m)
	done := make([]chan struct{}, m)
	for i := range done {
		done[i] = make(chan struct{})
	}
	// Memory bound: at most 2×parallelism completed-but-unconsumed map
	// outputs exist at once. Workers take split indices in ascending
	// order, so the index the reducer is waiting for is always in flight.
	tokens := make(chan struct{}, 2*parallelism)
	indices := make(chan int)
	go func() {
		for i := 0; i < m; i++ {
			tokens <- struct{}{}
			indices <- i
		}
		close(indices)
	}()

	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range indices {
				outputs[idx] = runMapTask(ctx, job, idx, counters)
				close(done[idx])
			}
		}()
	}

	// Reduce phase: the single reduce task consumes the mapper outputs in
	// split order.
	res := &Result{MapTasks: make([]TaskMetrics, m)}
	var reduceErr error
	for i := 0; i < m; i++ {
		<-done[i]
		out := outputs[i]
		outputs[i] = nil
		<-tokens
		if reduceErr == nil && ctx.Err() != nil {
			reduceErr = ctx.Err()
		}
		if out.err != nil {
			reduceErr = out.err
			continue
		}
		res.MapTasks[i] = out.metrics
		if reduceErr == nil {
			reduceErr = rt.feed(out.pairs)
		}
	}
	wg.Wait()
	if reduceErr != nil {
		return nil, fmt.Errorf("mapred: %s: %w", job.Name, reduceErr)
	}
	if err := rt.finish(res); err != nil {
		return nil, err
	}
	res.Counters = *counters
	res.Counters.MapCPUUnits = atomic.LoadInt64(&counters.MapCPUUnits)
	res.ShuffleBytes = counters.ShuffleBytes
	res.PairsShuffled = counters.PairsShuffled
	return res, nil
}

// reduceTask is a round's single reduce task, shared by the pipelined
// engine (RunContext) and the split-granular one (RunReduce): setup, then
// one feed per split in split order, then finish.
type reduceTask struct {
	job      *Job
	ctx      *TaskContext
	counters *Counters
}

func startReduce(job *Job, counters *Counters) (*reduceTask, error) {
	rt := &reduceTask{job: job, counters: counters, ctx: &TaskContext{
		JobName:   job.Name,
		SplitID:   ReducerState,
		NumSplits: len(job.Splits),
		Conf:      job.Conf,
		Cache:     job.Cache,
		State:     job.State,
		RNG:       taskRNG(job.Seed, ReducerState),
		counters:  counters,
	}}
	if err := job.Reducer.Setup(rt.ctx); err != nil {
		return nil, fmt.Errorf("mapred: %s: reducer setup: %w", job.Name, err)
	}
	return rt, nil
}

// feed reduces one split's key-sorted pairs.
func (rt *reduceTask) feed(pairs []KV) error {
	return feedGroups(rt.ctx, rt.job.Reducer, pairs, rt.counters)
}

// finish closes the reducer and records the reduce-side costs in res.
func (rt *reduceTask) finish(res *Result) error {
	if err := rt.job.Reducer.Close(rt.ctx); err != nil {
		return fmt.Errorf("mapred: %s: reducer close: %w", rt.job.Name, err)
	}
	res.ReduceCPU = rt.ctx.cpuUnits + float64(rt.counters.ReduceCalls)
	res.ReduceCalls = rt.counters.ReduceCalls
	return nil
}

// feedGroups groups consecutive pairs with equal keys (input is sorted by
// key within each batch) and invokes Reduce per group.
func feedGroups(ctx *TaskContext, red Reducer, pairs []KV, counters *Counters) error {
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].Key == pairs[lo].Key {
			hi++
		}
		atomic.AddInt64(&counters.ReduceCalls, 1)
		ctx.AddWork(float64(hi - lo)) // one unit per consumed pair
		if err := red.Reduce(ctx, pairs[lo].Key, pairs[lo:hi]); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// taskRNG derives a deterministic per-task RNG independent of scheduling.
func taskRNG(seed uint64, splitID int) *zipf.RNG {
	return zipf.NewRNG(seed ^ (uint64(splitID+2) * 0x9e3779b97f4a7c15))
}

// runMapTask executes one mapper over its split: Setup, Map per record,
// Close, then sort + combine + byte accounting.
func runMapTask(ctx context.Context, job *Job, idx int, counters *Counters) *mapOutput {
	if ctx.Err() != nil {
		return &mapOutput{err: ctx.Err()}
	}
	split := job.Splits[idx]
	tctx := &TaskContext{
		JobName:   job.Name,
		Split:     split,
		SplitID:   idx,
		NumSplits: len(job.Splits),
		Conf:      job.Conf,
		Cache:     job.Cache,
		State:     job.State,
		RNG:       taskRNG(job.Seed, idx),
		counters:  counters,
	}
	mapper := job.NewMapper(split)
	out := &Emitter{}
	if err := mapper.Setup(tctx); err != nil {
		return &mapOutput{err: fmt.Errorf("split %d setup: %w", idx, err)}
	}

	var bytesRead int64
	var records int64
	if reader := job.Input.Open(split, tctx); reader != nil {
		for {
			rec, ok := reader.Next()
			if !ok {
				break
			}
			records++
			if records&8191 == 0 && ctx.Err() != nil {
				return &mapOutput{err: ctx.Err()}
			}
			if err := mapper.Map(tctx, rec, out); err != nil {
				return &mapOutput{err: fmt.Errorf("split %d map: %w", idx, err)}
			}
		}
		if err := reader.Err(); err != nil {
			return &mapOutput{err: fmt.Errorf("split %d read: %w", idx, err)}
		}
		bytesRead = reader.BytesRead()
	}
	if err := mapper.Close(tctx, out); err != nil {
		return &mapOutput{err: fmt.Errorf("split %d close: %w", idx, err)}
	}

	atomic.AddInt64(&counters.MapRecordsRead, records)
	atomic.AddInt64(&counters.MapBytesRead, bytesRead)
	pairs := sortAndCombine(job, out.pairs)

	var shuffleBytes int64
	for i := range pairs {
		shuffleBytes += int64(job.pairBytes(pairs[i]))
	}
	atomic.AddInt64(&counters.PairsShuffled, int64(len(pairs)))
	atomic.AddInt64(&counters.ShuffleBytes, shuffleBytes)

	// Base CPU charges: one unit per record scanned, one per emitted pair
	// (buffer/partition/sort amortized); algorithm-specific work arrives
	// via ctx.AddWork.
	cpu := tctx.cpuUnits + float64(records) + float64(len(out.pairs))
	counters.addMapCPU(cpu)

	return &mapOutput{
		pairs: pairs,
		metrics: TaskMetrics{
			SplitID:    idx,
			Node:       split.Node,
			InputBytes: bytesRead + tctx.ioBytes,
			CPUUnits:   cpu,
		},
	}
}

// sortAndCombine sorts a mapper's emissions by key (stable, preserving
// emission order within a key) and applies the job's Combiner per key.
func sortAndCombine(job *Job, pairs []KV) []KV {
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].Key < pairs[b].Key })
	if job.Combiner == nil {
		return pairs
	}
	combined := pairs[:0:len(pairs)]
	for lo := 0; lo < len(pairs); {
		hi := lo + 1
		for hi < len(pairs) && pairs[hi].Key == pairs[lo].Key {
			hi++
		}
		combined = append(combined, job.Combiner(pairs[lo].Key, pairs[lo:hi])...)
		lo = hi
	}
	return combined
}
