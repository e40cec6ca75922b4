package core

import (
	"context"
	"testing"

	"wavelethist/internal/mapred"
)

// oneSplitJob is method's round-1 job over a single split of n records,
// u = 2^20 — the job every runtime runs for that split.
func oneSplitJob(tb testing.TB, method string, n int64, p Params) *mapred.Job {
	tb.Helper()
	const u = 1 << 20
	f, _ := testDataset(tb, n, u, 1.1, 4*n, 7)
	p.U = u
	plan, err := NewRoundPlan(f, method, p.Defaults())
	if err != nil {
		tb.Fatal(err)
	}
	if plan.NumSplits() != 1 {
		tb.Fatalf("want one split, have %d", plan.NumSplits())
	}
	return plan.job(1)
}

// round1Split is one 4096-record split — the shape of a build_exact split.
func round1Split(tb testing.TB) *mapred.Job {
	return oneSplitJob(tb, MethodHWTopk, 4096, Params{K: 30, Seed: 1})
}

func benchMapSplit(b *testing.B, job *mapred.Job) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapred.RunMapSplit(ctx, job, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHWTopkMapRound1 times H-WTopk's round-1 map task end to end:
// scan, aggregate, transform, top/bottom-k, state file.
func BenchmarkHWTopkMapRound1(b *testing.B) { benchMapSplit(b, round1Split(b)) }

// exactPlanJob is round's job of a finished H-WTopk build at build_exact's
// shape — 2^19 records in 128 splits of 4096, u = 2^20, k = 30 — so its
// state files, T1/m and R are those a real round 1 and 2 produced.
func exactPlanJob(b *testing.B, round int) *mapred.Job {
	const u = 1 << 20
	f, _ := testDataset(b, 1<<19, u, 1.1, 4*4096, 7)
	plan, err := NewRoundPlan(f, MethodHWTopk, Params{U: u, K: 30, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	for r := 1; r <= plan.NumRounds(); r++ {
		if err := plan.RunRound(context.Background(), r); err != nil {
			b.Fatal(err)
		}
	}
	return plan.job(round)
}

// BenchmarkHWTopkMapRound2 times one split's round-2 map task: read the
// round-1 file, emit what clears T1/m, persist the rest.
func BenchmarkHWTopkMapRound2(b *testing.B) { benchMapSplit(b, exactPlanJob(b, 2)) }

// BenchmarkHWTopkMapRound3 times one split's round-3 map task: find the
// candidates R in the round-2 file and emit them.
func BenchmarkHWTopkMapRound3(b *testing.B) { benchMapSplit(b, exactPlanJob(b, 3)) }

// BenchmarkSampledMapSplit times one TwoLevel-S map task at build_sampled's
// shape: a 16384-record split sampling 3906 of them (p = 1/(ε²n)), with
// ε√m = 0.016 as at ε = 1e-3 over 256 splits. Sample, read, aggregate,
// second-level draws, emit.
func BenchmarkSampledMapSplit(b *testing.B) {
	benchMapSplit(b, oneSplitJob(b, MethodTwoLevelS, 16384, Params{K: 30, Epsilon: 0.016, Seed: 1}))
}

// TestHWRound1MapperAllocs keeps the round-1 map task's allocation count
// flat in the split's size (24 today; the hash-map, sort.Slice and
// regrown-state mappers made 108), so those cannot creep back.
func TestHWRound1MapperAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool allocates under the race detector")
	}
	job := round1Split(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mapred.RunMapSplit(ctx, job, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("round-1 map task: %.0f allocs", allocs)
	if allocs > 40 {
		t.Errorf("round-1 map task made %.0f allocations, want <= 40", allocs)
	}
}
