package mapred

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"wavelethist/internal/cluster"
	"wavelethist/internal/zipf"
)

// A round is one map task per split (RunMapSplit), run in any process and
// in any order, each yielding its split's Partial, then one reduce task
// over the collected partials (RunReduce). Every task derives its RNG from
// (job seed, split id) and the reducer consumes partials in the order
// given, so a caller that feeds them in split order gets the same floats
// whichever process ran which split. The package starts no goroutines:
// fanning the map tasks out is the caller's business.

// Partial is what one map task measured of its split: the split's sorted,
// combined intermediate pairs and its work profile. It is all a split
// contributes to its round's reduce; where the split sits (its DataNode)
// is the job's to know, not the task's to report.
type Partial struct {
	SplitID int
	// Pairs are the split's sorted, combined intermediate pairs.
	Pairs []KV
	// RecordsRead / BytesRead are the split's input-scan counters.
	RecordsRead int64
	BytesRead   int64
	// InputBytes / CPUUnits feed the cluster cost model.
	InputBytes int64
	CPUUnits   float64
}

// mapBatch is how many keys a map task reads per ReadKeys call, and so
// per Map call: cancellation is checked once per batch.
const mapBatch = 8192

var keyBatches = sync.Pool{New: func() any { return new([]int64) }}

// RunMapSplit executes the map task of split idx: Setup, Map per batch of
// at most mapBatch keys, Close, then sort + combine. Cancellation is
// checked before the task and before every batch.
func RunMapSplit(ctx context.Context, job *Job, idx int) (Partial, error) {
	if err := job.validate(); err != nil {
		return Partial{}, err
	}
	if idx < 0 || idx >= len(job.Splits) {
		return Partial{}, fmt.Errorf("mapred: %s: split %d out of range [0, %d)", job.Name, idx, len(job.Splits))
	}
	if err := ctx.Err(); err != nil {
		return Partial{}, fmt.Errorf("mapred: %s: %w", job.Name, err)
	}
	fail := func(step string, err error) (Partial, error) {
		return Partial{}, fmt.Errorf("mapred: %s: split %d %s: %w", job.Name, idx, step, err)
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

	res := Partial{SplitID: idx}
	if reader := job.Input.Open(split, tctx); reader != nil {
		batch := keyBatches.Get().(*[]int64)
		defer keyBatches.Put(batch)
		for {
			keys := reader.ReadKeys((*batch)[:0], mapBatch)
			*batch = keys
			if len(keys) == 0 {
				break
			}
			if err := ctx.Err(); err != nil {
				return Partial{}, fmt.Errorf("mapred: %s: %w", job.Name, err)
			}
			res.RecordsRead += int64(len(keys))
			if err := mapper.Map(tctx, keys, out); err != nil {
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
	res.InputBytes = res.BytesRead + tctx.ioBytes
	res.CPUUnits = tctx.cpuUnits + float64(res.RecordsRead) + float64(len(out.pairs))
	res.Pairs = sortAndCombine(job, out.pairs)
	return res, nil
}

// RunReduce executes the reduce task of a job over its map tasks'
// partials, each sorted by key, fed in the order given: Setup, one Reduce
// per run of equal keys within a partial (the task's SplitID is that
// partial's split), Close. The Result carries the whole round: each map
// task's cost on its split's node, the scan counters, the reduce-side and
// the shuffle costs.
func RunReduce(ctx context.Context, job *Job, parts []Partial) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	tctx := &TaskContext{
		SplitID:   -1,
		NumSplits: len(job.Splits),
		State:     job.State,
		RNG:       taskRNG(job.Seed, -1),
	}
	if err := job.Reducer.Setup(tctx); err != nil {
		return nil, fmt.Errorf("mapred: %s: reducer setup: %w", job.Name, err)
	}
	res := &Result{MapTasks: make([]cluster.TaskCost, 0, len(parts))}
	for _, part := range parts {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
		}
		if part.SplitID < 0 || part.SplitID >= len(job.Splits) {
			return nil, fmt.Errorf("mapred: %s: partial of split %d out of range [0, %d)", job.Name, part.SplitID, len(job.Splits))
		}
		res.MapTasks = append(res.MapTasks, cluster.TaskCost{PreferredNode: job.Splits[part.SplitID].Node, InputBytes: part.InputBytes, CPUUnits: part.CPUUnits})
		res.MapRecordsRead += part.RecordsRead
		res.MapBytesRead += part.BytesRead
		tctx.SplitID = part.SplitID
		batch := part.Pairs
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
			res.ShuffleBytes += int64(job.PairBytes(batch[i]))
		}
		res.PairsShuffled += int64(len(batch))
	}
	tctx.SplitID = -1
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
// Most mappers emit in key order already, which one pass confirms.
func sortAndCombine(job *Job, pairs []KV) []KV {
	byKey := func(a, b KV) int { return cmp.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(pairs, byKey) {
		slices.SortStableFunc(pairs, byKey)
	}
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
