package core

import (
	"context"
	"testing"

	"wavelethist/internal/mapred"
)

// round1Split is one 4096-record split over u = 2^20 — the shape of a
// build_exact split — wired to the round-1 job every runtime runs.
func round1Split(tb testing.TB) *mapred.Job {
	tb.Helper()
	const n, u = 4096, 1 << 20
	f, _ := testDataset(tb, n, u, 1.1, 4*n, 7)
	p := Params{U: u, K: 30, Seed: 1}.Defaults()
	plan, err := NewRoundPlan(f, MethodHWTopk, p)
	if err != nil {
		tb.Fatal(err)
	}
	if plan.NumSplits() != 1 {
		tb.Fatalf("want one split, have %d", plan.NumSplits())
	}
	job := plan.job(1)
	if err := job.Prepare(); err != nil {
		tb.Fatal(err)
	}
	return job
}

// BenchmarkHWTopkMapRound1 times H-WTopk's round-1 map task end to end:
// scan, aggregate, transform, top/bottom-k, state file.
func BenchmarkHWTopkMapRound1(b *testing.B) {
	job := round1Split(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapred.RunMapSplit(ctx, job, 0); err != nil {
			b.Fatal(err)
		}
	}
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
