package mapred

import (
	"context"
	"fmt"
)

// Split-granular execution: the dist subsystem runs a job's map side one
// split at a time on remote worker processes (RunMapSplit) and its reduce
// side once on the coordinator over the collected per-split batches
// (RunReduce). Because every task derives its RNG from (job seed, split
// id) and the reducer consumes batches in split order, the two halves
// reproduce RunContext's output bit-for-bit regardless of which worker
// ran which split — the property the distributed parity tests assert.

// MapSplitResult is the outcome of one standalone map task: the split's
// sorted, combined intermediate pairs plus its measured work profile.
type MapSplitResult struct {
	Pairs   []KV
	Metrics TaskMetrics
	// RecordsRead / BytesRead are the split's input-scan counters.
	RecordsRead int64
	BytesRead   int64
	// ShuffleBytes is the modeled wire size of Pairs under Job.PairBytes
	// (the paper's communication accounting for this split's shuffle).
	ShuffleBytes int64
}

// RunMapSplit executes only the map side of split idx.
func RunMapSplit(ctx context.Context, job *Job, idx int) (*MapSplitResult, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	if idx < 0 || idx >= len(job.Splits) {
		return nil, fmt.Errorf("mapred: %s: split %d out of range [0, %d)", job.Name, idx, len(job.Splits))
	}
	job.fillDefaults()
	counters := &Counters{}
	out := runMapTask(ctx, job, idx, counters)
	if out.err != nil {
		return nil, fmt.Errorf("mapred: %s: %w", job.Name, out.err)
	}
	return &MapSplitResult{
		Pairs:        out.pairs,
		Metrics:      out.metrics,
		RecordsRead:  counters.MapRecordsRead,
		BytesRead:    counters.MapBytesRead,
		ShuffleBytes: counters.ShuffleBytes,
	}, nil
}

// RunReduce executes only the reduce side of a job over externally supplied per-split pair batches (each sorted by key), fed in
// the order given. The returned Result carries reduce-side and shuffle
// metrics; map-task profiles come from the workers' MapSplitResults.
func RunReduce(ctx context.Context, job *Job, batches [][]KV) (*Result, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	job.fillDefaults()
	counters := &Counters{}
	rt, err := startReduce(job, counters)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, batch := range batches {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
		}
		if err := rt.feed(batch); err != nil {
			return nil, fmt.Errorf("mapred: %s: %w", job.Name, err)
		}
		for i := range batch {
			res.ShuffleBytes += int64(job.pairBytes(batch[i]))
		}
		res.PairsShuffled += int64(len(batch))
	}
	if err := rt.finish(res); err != nil {
		return nil, err
	}
	res.Counters = *counters
	res.Counters.ShuffleBytes = res.ShuffleBytes
	res.Counters.PairsShuffled = res.PairsShuffled
	return res, nil
}
