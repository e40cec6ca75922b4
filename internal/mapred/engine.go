package mapred

import (
	"context"
	"fmt"
	"sort"

	"wavelethist/internal/zipf"
)

// A round is one map task per split (RunMapSplit), run in any process and
// in any order, then one reduce task over the collected per-split batches
// (RunReduce). Every task derives its RNG from (job seed, split id) and
// the reducer consumes batches in the order given, so a caller that feeds
// them in split order gets the same floats whichever process ran which
// split. The package starts no goroutines: fanning the map tasks out is
// the caller's business.

// MapSplitResult is the outcome of one map task: the split's sorted,
// combined intermediate pairs plus its measured work profile.
type MapSplitResult struct {
	Pairs   []KV
	Metrics TaskMetrics
	// RecordsRead / BytesRead are the split's input-scan counters.
	RecordsRead int64
	BytesRead   int64
}

// RunMapSplit executes the map task of split idx: Setup, Map per record,
// Close, then sort + combine. Cancellation is checked before the task and
// periodically inside the record scan.
func RunMapSplit(ctx context.Context, job *Job, idx int) (*MapSplitResult, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(job.Splits) {
		return nil, fmt.Errorf("mapred: %s: split %d out of range [0, %d)", job.Name, idx, len(job.Splits))
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
	}
	job.fillDefaults()
	fail := func(step string, err error) (*MapSplitResult, error) {
		return nil, fmt.Errorf("mapred: %s: split %d %s: %w", job.Name, idx, step, err)
	}
	split := job.Splits[idx]
	tctx := &TaskContext{
		SplitID:   idx,
		NumSplits: len(job.Splits),
		State:     job.State,
		RNG:       taskRNG(job.Seed, idx),
	}
	mapper := job.NewMapper(split)
	out := &Emitter{}
	if err := mapper.Setup(tctx); err != nil {
		return fail("setup", err)
	}

	res := &MapSplitResult{}
	if reader := job.Input.Open(split, tctx); reader != nil {
		for {
			rec, ok := reader.Next()
			if !ok {
				break
			}
			res.RecordsRead++
			if res.RecordsRead&8191 == 0 && ctx.Err() != nil {
				return nil, fmt.Errorf("mapred: %s: %w", job.Name, ctx.Err())
			}
			if err := mapper.Map(tctx, rec, out); err != nil {
				return fail("map", err)
			}
		}
		if err := reader.Err(); err != nil {
			return fail("read", err)
		}
		res.BytesRead = reader.BytesRead()
	}
	if err := mapper.Close(tctx, out); err != nil {
		return fail("close", err)
	}

	// Base CPU charges: one unit per record scanned, one per emitted pair
	// (buffer/partition/sort amortized); algorithm-specific work arrives
	// via ctx.AddWork.
	res.Metrics = TaskMetrics{
		SplitID:    idx,
		Node:       split.Node,
		InputBytes: res.BytesRead + tctx.ioBytes,
		CPUUnits:   tctx.cpuUnits + float64(res.RecordsRead) + float64(len(out.pairs)),
	}
	res.Pairs = sortAndCombine(job, out.pairs)
	return res, nil
}

// RunReduce executes the reduce task of a job over per-split pair batches,
// each sorted by key, fed in the order given: Setup, one Reduce per run of
// equal keys within a batch, Close. The Result carries the reduce-side and
// shuffle costs; the map-side ones (MapTasks, MapRecordsRead,
// MapBytesRead) are the caller's to fill from its MapSplitResults.
func RunReduce(ctx context.Context, job *Job, batches [][]KV) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	job.fillDefaults()
	tctx := &TaskContext{
		SplitID:   -1,
		NumSplits: len(job.Splits),
		State:     job.State,
		RNG:       taskRNG(job.Seed, -1),
	}
	if err := job.Reducer.Setup(tctx); err != nil {
		return nil, fmt.Errorf("mapred: %s: reducer setup: %w", job.Name, err)
	}
	res := &Result{}
	for _, batch := range batches {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
		}
		for lo := 0; lo < len(batch); {
			hi := lo + 1
			for hi < len(batch) && batch[hi].Key == batch[lo].Key {
				hi++
			}
			res.ReduceCalls++
			tctx.AddWork(float64(hi - lo)) // one unit per consumed pair
			if err := job.Reducer.Reduce(tctx, batch[lo].Key, batch[lo:hi]); err != nil {
				return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
			}
			lo = hi
		}
		for i := range batch {
			res.ShuffleBytes += int64(job.pairBytes(batch[i]))
		}
		res.PairsShuffled += int64(len(batch))
	}
	if err := job.Reducer.Close(tctx); err != nil {
		return nil, fmt.Errorf("mapred: %s: reducer close: %w", job.Name, err)
	}
	res.ReduceCPU = tctx.cpuUnits + float64(res.ReduceCalls)
	return res, nil
}

// taskRNG derives a deterministic per-task RNG independent of scheduling.
func taskRNG(seed uint64, splitID int) *zipf.RNG {
	return zipf.NewRNG(seed ^ (uint64(splitID+2) * 0x9e3779b97f4a7c15))
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
