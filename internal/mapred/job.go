package mapred

import (
	"fmt"

	"wavelethist/internal/cluster"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/zipf"
)

// TaskContext is the per-task environment: persistent state, a
// deterministic task-local RNG, and work accounting for the cost model.
type TaskContext struct {
	SplitID   int // the split a map task reads or the reduce task is consuming; -1 in the reducer's Setup and Close
	NumSplits int
	State     *StateStore
	RNG       *zipf.RNG

	cpuUnits float64 // task-local abstract work
	ioBytes  int64   // task-local input bytes (readers + explicit)
}

// AddWork charges abstract CPU work units to this task (one unit ≈ one
// hash-map update / coefficient operation). The cluster cost model turns
// units into seconds on the task's node.
func (ctx *TaskContext) AddWork(units float64) {
	ctx.cpuUnits += units
}

// AddIOBytes charges extra local-disk input bytes (e.g. state-file reads).
func (ctx *TaskContext) AddIOBytes(n int64) {
	ctx.ioBytes += n
}

// Emitter collects a mapper's intermediate pairs in memory; the runtime
// simulates no spills.
type Emitter struct {
	pairs []KV
}

// Emit outputs one intermediate pair.
func (e *Emitter) Emit(kv KV) {
	e.pairs = append(e.pairs, kv)
}

// Mapper is the Hadoop mapper contract over batched input: Map is invoked
// per batch of the split's keys in split order (a record is its key; no
// mapper needs its position or size), Close once at the end of the split
// (where the paper's mappers do their real work: building v_j, the local
// transform, local top-k).
type Mapper interface {
	// Setup runs before the first batch.
	Setup(ctx *TaskContext) error
	// Map handles one batch of input keys; keys is only valid during
	// the call.
	Map(ctx *TaskContext, keys []int64, out *Emitter) error
	// Close runs after the last batch.
	Close(ctx *TaskContext, out *Emitter) error
}

// Reducer is the Hadoop reducer contract, fed as a stream: Reduce is
// called once per distinct key of each split's key-sorted batch, so many
// times per key across splits (all our reducers are commutative
// aggregations, which Hadoop's combiner contract already requires).
// Close runs after all keys.
type Reducer interface {
	Setup(ctx *TaskContext) error
	Reduce(ctx *TaskContext, key int64, vals []KV) error
	Close(ctx *TaskContext) error
}

// Combiner locally aggregates one mapper's pairs sharing a key before they
// are shuffled, like Hadoop's Combine function.
type Combiner func(key int64, vals []KV) []KV

// InputFormat produces a RecordReader for a split, mirroring Hadoop's
// pluggable InputFormat. A nil reader means the mapper sees no records
// (H-WTopk rounds 2-3 define an InputFormat that does not read the split).
type InputFormat interface {
	Open(split hdfs.Split, ctx *TaskContext) hdfs.RecordReader
}

// SequentialInput scans every record (the default InputFormat).
type SequentialInput struct{}

// Open implements InputFormat.
func (SequentialInput) Open(split hdfs.Split, _ *TaskContext) hdfs.RecordReader {
	if split.File.RecordSize == 0 {
		return hdfs.NewSequentialVarReader(split)
	}
	return hdfs.NewSequentialReader(split)
}

// RandomSampleInput is the paper's RandomInputFile format: each split j
// samples p·n_j records without replacement via the RandomRecordReader.
type RandomSampleInput struct {
	// P is the sampling probability p = 1/(ε²n) of level-1 sampling.
	P float64
}

// Open implements InputFormat.
func (f RandomSampleInput) Open(split hdfs.Split, ctx *TaskContext) hdfs.RecordReader {
	if split.File.RecordSize == 0 {
		nj := estimateVarRecords(split)
		return hdfs.NewRandomVarReader(split, int64(f.P*float64(nj)), ctx.RNG)
	}
	nj := split.NumRecords()
	return hdfs.NewRandomReader(split, int64(f.P*float64(nj)), ctx.RNG)
}

// estimateVarRecords estimates n_j for a variable-length split from the
// file's average record size — the paper's suggested statistic when exact
// per-split counts are unavailable (Appendix B).
func estimateVarRecords(split hdfs.Split) int64 {
	f := split.File
	if f.NumRecords == 0 || f.Size() == 0 {
		return 0
	}
	avg := float64(f.Size()) / float64(f.NumRecords)
	return int64(float64(split.Length) / avg)
}

// NoInput reads nothing: mappers run Setup and Close only, restoring their
// state from the StateStore (H-WTopk rounds 2 and 3).
type NoInput struct{}

// Open implements InputFormat.
func (NoInput) Open(hdfs.Split, *TaskContext) hdfs.RecordReader { return nil }

// Job describes one MapReduce round: mappers buffer their pairs in memory
// (no spills) and the single reducer consumes them as a stream, one
// key-sorted batch per split in split order.
type Job struct {
	Name   string
	Splits []hdfs.Split
	Input  InputFormat

	// NewMapper creates the mapper for one split (mappers are stateful
	// and per-split).
	NewMapper func(split hdfs.Split) Mapper
	Combiner  Combiner // optional
	// Reducer is the round's single reduce task: the paper's jobs use
	// r = 1 (their coordinator is necessarily one task).
	Reducer Reducer

	// PairBytes gives the wire size of one shuffled pair: the paper's
	// encodings (4-byte keys, 4-byte counts, 8-byte doubles). Required.
	PairBytes func(KV) int

	// State holds the per-split state files rounds hand each other.
	// Required.
	State *StateStore

	// Seed makes the whole job deterministic; each task derives its own
	// RNG stream from it.
	Seed uint64
}

// Result is the outcome of one round, in the spirit of Hadoop's job
// counters.
type Result struct {
	MapTasks       []cluster.TaskCost // one per map task, in reduce order
	MapRecordsRead int64              // records delivered by record readers
	MapBytesRead   int64              // bytes pulled from DataNodes by record readers
	ReduceCPU      float64
	ReduceCalls    int64
	// ShuffleBytes is the exact communication of this round: encoded
	// size of all pairs crossing mapper→reducer after combining.
	ShuffleBytes int64
	// PairsShuffled counts those pairs.
	PairsShuffled int64
}

func (j *Job) validate() error {
	if j.NewMapper == nil {
		return fmt.Errorf("mapred: job %q has no mapper factory", j.Name)
	}
	if j.Reducer == nil {
		return fmt.Errorf("mapred: job %q has no reducer", j.Name)
	}
	if j.Input == nil {
		return fmt.Errorf("mapred: job %q has no input format", j.Name)
	}
	if len(j.Splits) == 0 {
		return fmt.Errorf("mapred: job %q has no splits", j.Name)
	}
	if j.PairBytes == nil {
		return fmt.Errorf("mapred: job %q has no pair encoding", j.Name)
	}
	if j.State == nil {
		return fmt.Errorf("mapred: job %q has no state store", j.Name)
	}
	return nil
}
