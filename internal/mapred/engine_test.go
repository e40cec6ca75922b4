package mapred

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"wavelethist/internal/hdfs"
)

// countMapper emits (key, 1) per record — word count over keys.
type countMapper struct{}

func (countMapper) Setup(*TaskContext) error { return nil }
func (countMapper) Map(ctx *TaskContext, keys []int64, out *Emitter) error {
	for _, k := range keys {
		out.Emit(KV{Key: k, Val: 1})
	}
	return nil
}
func (countMapper) Close(*TaskContext, *Emitter) error { return nil }

// sumReducer accumulates per-key totals.
type sumReducer struct {
	totals map[int64]float64
	closed bool
}

func (r *sumReducer) Setup(*TaskContext) error {
	r.totals = make(map[int64]float64)
	return nil
}
func (r *sumReducer) Reduce(_ *TaskContext, key int64, vals []KV) error {
	for _, v := range vals {
		r.totals[key] += v.Val
	}
	return nil
}
func (r *sumReducer) Close(*TaskContext) error {
	r.closed = true
	return nil
}

// sumCombiner pre-aggregates counts, like Hadoop's word-count combiner.
func sumCombiner(key int64, vals []KV) []KV {
	var s float64
	for _, v := range vals {
		s += v.Val
	}
	return []KV{{Key: key, Val: s}}
}

// runJob runs a job the way every round runs: each split's map task, in
// split order, then the reduce task over their partials.
func runJob(job *Job) (*Result, error) {
	ctx := context.Background()
	parts := make([]Partial, len(job.Splits))
	for i := range job.Splits {
		var err error
		if parts[i], err = RunMapSplit(ctx, job, i); err != nil {
			return nil, err
		}
	}
	return RunReduce(ctx, job, parts)
}

// pairBytes12 is a 4-byte key and an 8-byte double.
func pairBytes12(KV) int { return 12 }

func makeDataset(t *testing.T, keys []int64, chunk int64) []hdfs.Split {
	t.Helper()
	fs := hdfs.NewFileSystem(4, chunk)
	w, err := fs.Create("in", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		w.Append(k)
	}
	return w.Close().Splits(0)
}

func repeatKeys(n int, mod int64) []int64 {
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i*7+3) % mod
	}
	return keys
}

func wordCountJob(t *testing.T, splits []hdfs.Split, combiner Combiner) (*Result, map[int64]float64) {
	t.Helper()
	red := &sumReducer{}
	job := &Job{
		Name:      "wordcount",
		Splits:    splits,
		Input:     SequentialInput{},
		NewMapper: func(hdfs.Split) Mapper { return countMapper{} },
		Combiner:  combiner,
		Reducer:   red,
		PairBytes: pairBytes12,
		State:     NewStateStore(),
		Seed:      1,
	}
	res, err := runJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if !red.closed {
		t.Fatal("reducer Close not called")
	}
	return res, red.totals
}

func TestWordCountCorrect(t *testing.T) {
	keys := repeatKeys(5000, 97)
	want := make(map[int64]float64)
	for _, k := range keys {
		want[k]++
	}
	splits := makeDataset(t, keys, 256)
	if len(splits) < 10 {
		t.Fatalf("want many splits, got %d", len(splits))
	}
	_, got := wordCountJob(t, splits, nil)
	if len(got) != len(want) {
		t.Fatalf("%d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("key %d = %v, want %v", k, got[k], v)
		}
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	keys := repeatKeys(5000, 13) // heavy duplication
	splits := makeDataset(t, keys, 1024)
	resNo, totalsNo := wordCountJob(t, splits, nil)
	resYes, totalsYes := wordCountJob(t, splits, sumCombiner)
	for k, v := range totalsNo {
		if totalsYes[k] != v {
			t.Errorf("combiner changed result for key %d: %v vs %v", k, totalsYes[k], v)
		}
	}
	if resYes.PairsShuffled >= resNo.PairsShuffled {
		t.Errorf("combiner did not reduce pairs: %d vs %d", resYes.PairsShuffled, resNo.PairsShuffled)
	}
	if resYes.ShuffleBytes >= resNo.ShuffleBytes {
		t.Errorf("combiner did not reduce bytes: %d vs %d", resYes.ShuffleBytes, resNo.ShuffleBytes)
	}
	if resNo.PairsShuffled != int64(len(keys)) {
		t.Errorf("uncombined pairs = %d, want %d", resNo.PairsShuffled, len(keys))
	}
}

func TestPairBytesAccounting(t *testing.T) {
	keys := repeatKeys(100, 1000) // all distinct-ish
	splits := makeDataset(t, keys, 1<<20)
	red := &sumReducer{}
	job := &Job{
		Name:      "bytes",
		Splits:    splits,
		Input:     SequentialInput{},
		NewMapper: func(hdfs.Split) Mapper { return countMapper{} },
		Reducer:   red,
		PairBytes: func(KV) int { return 8 }, // 4-byte key + 4-byte count
		State:     NewStateStore(),
		Seed:      1,
	}
	res, err := runJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShuffleBytes != res.PairsShuffled*8 {
		t.Errorf("bytes = %d, want pairs×8 = %d", res.ShuffleBytes, res.PairsShuffled*8)
	}
}

// stateMapper writes state in round 1 and reads it back in round 2
// (NoInput), like H-WTopk's persistent mappers.
type stateMapper struct{ round int }

func (sm stateMapper) Setup(*TaskContext) error { return nil }
func (sm stateMapper) Map(ctx *TaskContext, keys []int64, out *Emitter) error {
	return nil
}
func (sm stateMapper) Close(ctx *TaskContext, out *Emitter) error {
	switch sm.round {
	case 1:
		var b []byte
		b = AppendInt64(b, int64(ctx.SplitID)*100)
		ctx.State.Adopt(ctx.SplitID, fileBytes(b))
	case 2:
		b := ctx.State.Get(ctx.SplitID)
		if b == nil {
			return errors.New("state missing")
		}
		v, _ := ReadInt64(b, 0)
		out.Emit(KV{Key: 0, Val: float64(v)})
	}
	return nil
}

func TestMultiRoundState(t *testing.T) {
	splits := makeDataset(t, repeatKeys(64, 50), 64)
	state := NewStateStore()
	red1 := &sumReducer{}
	red2 := &sumReducer{}
	round1 := &Job{
		Name: "r1", Splits: splits, Input: SequentialInput{},
		NewMapper: func(hdfs.Split) Mapper { return stateMapper{round: 1} },
		Reducer:   red1, PairBytes: pairBytes12, State: state, Seed: 3,
	}
	round2 := &Job{
		Name: "r2", Splits: splits, Input: NoInput{},
		NewMapper: func(hdfs.Split) Mapper { return stateMapper{round: 2} },
		Reducer:   red2, PairBytes: pairBytes12, State: state, Seed: 3,
	}
	var results []*Result
	for _, j := range []*Job{round1, round2} {
		res, err := runJob(j)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	// Round 2 reads no input records.
	if results[1].MapRecordsRead != 0 {
		t.Errorf("round 2 read %d records, want 0", results[1].MapRecordsRead)
	}
	// Sum over splits of splitID*100.
	m := len(splits)
	want := float64(100 * m * (m - 1) / 2)
	if red2.totals[0] != want {
		t.Errorf("round-2 total = %v, want %v", red2.totals[0], want)
	}
}

func TestRandomSampleInput(t *testing.T) {
	keys := repeatKeys(10000, 1000)
	splits := makeDataset(t, keys, 4096)
	red := &sumReducer{}
	job := &Job{
		Name:      "sample",
		Splits:    splits,
		Input:     RandomSampleInput{P: 0.1},
		NewMapper: func(hdfs.Split) Mapper { return countMapper{} },
		Reducer:   red,
		PairBytes: pairBytes12,
		State:     NewStateStore(),
		Seed:      11,
	}
	res, err := runJob(job)
	if err != nil {
		t.Fatal(err)
	}
	var sampled float64
	for _, v := range red.totals {
		sampled += v
	}
	if sampled < 800 || sampled > 1200 {
		t.Errorf("sampled %v records, want ~1000", sampled)
	}
	if res.MapRecordsRead != int64(sampled) {
		t.Errorf("records read %d != sampled %v", res.MapRecordsRead, sampled)
	}
	// Sampling reads only the sampled records' bytes.
	if res.MapBytesRead >= int64(len(keys)*4) {
		t.Errorf("sampling read the whole input: %d bytes", res.MapBytesRead)
	}
}

type failingMapper struct{}

func (failingMapper) Setup(*TaskContext) error { return nil }
func (failingMapper) Map(ctx *TaskContext, keys []int64, out *Emitter) error {
	if ctx.SplitID == 2 {
		return fmt.Errorf("boom")
	}
	return nil
}
func (failingMapper) Close(*TaskContext, *Emitter) error { return nil }

func TestMapperErrorPropagates(t *testing.T) {
	splits := makeDataset(t, repeatKeys(1000, 10), 256)
	job := &Job{
		Name: "fail", Splits: splits, Input: SequentialInput{},
		NewMapper: func(hdfs.Split) Mapper { return failingMapper{} },
		Reducer:   &sumReducer{}, PairBytes: pairBytes12, State: NewStateStore(), Seed: 1,
	}
	if _, err := runJob(job); err == nil {
		t.Fatal("expected error")
	}
}

// A split whose Length overruns its file is a failed read, and a failed
// read fails the task: it must not pass for a shorter split (an exact
// build dropping the tail, a sampled build using fewer records).
func TestShortReadFailsTask(t *testing.T) {
	for name, input := range map[string]InputFormat{
		"sequential": SequentialInput{},
		"sampled":    RandomSampleInput{P: 1},
	} {
		splits := makeDataset(t, repeatKeys(1000, 10), 256)
		splits[len(splits)-1].Length += 64
		job := &Job{
			Name: "short", Splits: splits, Input: input,
			NewMapper: func(hdfs.Split) Mapper { return countMapper{} },
			Reducer:   &sumReducer{}, PairBytes: pairBytes12, State: NewStateStore(), Seed: 1,
		}
		want := fmt.Sprintf("split %d read:", len(splits)-1)
		if _, err := runJob(job); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, want)
		}
	}
}

func TestValidation(t *testing.T) {
	splits := makeDataset(t, []int64{1}, 64)
	mapper := func(hdfs.Split) Mapper { return countMapper{} }
	state := NewStateStore()
	bad := map[string]*Job{
		"mapper factory": {Splits: splits, Input: SequentialInput{}, Reducer: &sumReducer{}, PairBytes: pairBytes12, State: state},
		"reducer":        {Splits: splits, Input: SequentialInput{}, NewMapper: mapper, PairBytes: pairBytes12, State: state},
		"input format":   {Splits: splits, NewMapper: mapper, Reducer: &sumReducer{}, PairBytes: pairBytes12, State: state},
		"splits":         {Input: SequentialInput{}, NewMapper: mapper, Reducer: &sumReducer{}, PairBytes: pairBytes12, State: state},
		"pair encoding":  {Splits: splits, Input: SequentialInput{}, NewMapper: mapper, Reducer: &sumReducer{}, State: state},
		"state store":    {Splits: splits, Input: SequentialInput{}, NewMapper: mapper, Reducer: &sumReducer{}, PairBytes: pairBytes12},
	}
	for missing, j := range bad {
		if _, err := runJob(j); err == nil || !strings.Contains(err.Error(), "has no "+missing) {
			t.Errorf("job without its %s: err = %v", missing, err)
		}
		if _, err := RunReduce(context.Background(), j, nil); err == nil {
			t.Errorf("job without its %s: RunReduce accepted it", missing)
		}
	}
}

// The reduce task reads each partial's split from the partial, and its
// node from the job: a partial naming no split of the job is refused, and
// the reducer sees each batch's split id in TaskContext.SplitID.
func TestReduceSplitIDs(t *testing.T) {
	splits := makeDataset(t, repeatKeys(400, 10), 256)
	red := &splitReducer{}
	job := &Job{
		Name: "ids", Splits: splits, Input: SequentialInput{},
		NewMapper: func(hdfs.Split) Mapper { return countMapper{} },
		Reducer:   red, PairBytes: pairBytes12, State: NewStateStore(), Seed: 1,
	}
	parts := []Partial{{SplitID: 2, Pairs: []KV{{Key: 1}}}, {SplitID: 0, Pairs: []KV{{Key: 1}, {Key: 2}}}}
	res, err := RunReduce(context.Background(), job, parts)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 0, 0}; !slices.Equal(red.seen, want) {
		t.Errorf("reducer saw splits %v, want %v", red.seen, want)
	}
	for i, tc := range res.MapTasks {
		if want := splits[parts[i].SplitID].Node; tc.PreferredNode != want {
			t.Errorf("task %d on node %d, want its split's %d", i, tc.PreferredNode, want)
		}
	}
	for _, id := range []int{-1, len(splits)} {
		if _, err := RunReduce(context.Background(), job, []Partial{{SplitID: id}}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("partial of split %d: err = %v", id, err)
		}
	}
}

// splitReducer records the split id of every Reduce call.
type splitReducer struct{ seen []int }

func (r *splitReducer) Setup(*TaskContext) error { return nil }
func (r *splitReducer) Reduce(ctx *TaskContext, _ int64, _ []KV) error {
	r.seen = append(r.seen, ctx.SplitID)
	return nil
}
func (r *splitReducer) Close(*TaskContext) error { return nil }

func TestCountersSanity(t *testing.T) {
	keys := repeatKeys(2000, 100)
	splits := makeDataset(t, keys, 512)
	res, _ := wordCountJob(t, splits, nil)
	if res.MapRecordsRead != int64(len(keys)) {
		t.Errorf("records read = %d, want %d", res.MapRecordsRead, len(keys))
	}
	if res.MapBytesRead != int64(len(keys)*4) {
		t.Errorf("bytes read = %d, want %d", res.MapBytesRead, len(keys)*4)
	}
	if res.PairsShuffled != int64(len(keys)) {
		t.Errorf("pairs shuffled = %d", res.PairsShuffled)
	}
	if res.ReduceCPU <= 0 {
		t.Error("reduce CPU accounting missing")
	}
	if len(res.MapTasks) != len(splits) {
		t.Errorf("task metrics = %d, want %d", len(res.MapTasks), len(splits))
	}
	for i, tm := range res.MapTasks {
		if tm.InputBytes <= 0 {
			t.Errorf("task %d read nothing", i)
		}
		if tm.CPUUnits <= 0 {
			t.Errorf("task %d charged no CPU", i)
		}
		if tm.PreferredNode != splits[i].Node {
			t.Errorf("task %d on node %d, want its split's %d", i, tm.PreferredNode, splits[i].Node)
		}
	}
}
