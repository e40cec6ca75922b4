package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
)

// setProcs returns a function that sets GOMAXPROCS — the split fan-out's
// worker count — for the rest of t, restoring the original when t ends.
func setProcs(t *testing.T) func(n int) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	return func(n int) { runtime.GOMAXPROCS(n) }
}

// MapSplits fans splits across goroutines; the partials must be
// bit-identical to a serial (GOMAXPROCS=1) pass, in the same order, for
// every method family. This is the race-enabled smoke CI runs.
func TestMapSplitsParallelDeterminism(t *testing.T) {
	procs := setProcs(t)
	f, _ := testDataset(t, 30000, 1<<10, 1.1, 1024, 7)
	p := Params{U: 1 << 10, K: 10, Epsilon: 0.01, Seed: 44, SplitSize: 2048}
	m := NumSplits(f, p)
	if m < 8 {
		t.Fatalf("want >= 8 splits, have %d", m)
	}
	ids := make([]int, m)
	for i := range ids {
		ids[i] = i
	}
	for _, method := range []string{"Send-V", "TwoLevel-S", "Send-Sketch"} {
		procs(1)
		want, err := MapSplits(context.Background(), f, method, p, ids)
		if err != nil {
			t.Fatal(err)
		}
		procs(4)
		got, err := MapSplits(context.Background(), f, method, p, ids)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d partials, want %d", method, len(got), len(want))
		}
		for i := range want {
			if got[i].SplitID != want[i].SplitID || len(got[i].Pairs) != len(want[i].Pairs) {
				t.Fatalf("%s: partial %d shape differs", method, i)
			}
			for j := range want[i].Pairs {
				if got[i].Pairs[j] != want[i].Pairs[j] {
					t.Fatalf("%s: partial %d pair %d: got %+v, want %+v",
						method, i, j, got[i].Pairs[j], want[i].Pairs[j])
				}
			}
		}
	}
}

// MapRoundSplits must stay deterministic under the same fan-out,
// including the state files later rounds read.
func TestMapRoundSplitsParallelDeterminism(t *testing.T) {
	procs := setProcs(t)
	f, _ := testDataset(t, 30000, 1<<10, 1.1, 1024, 7)
	p := Params{U: 1 << 10, K: 10, Seed: 44, SplitSize: 2048}
	m := NumSplits(f, p)
	ids := make([]int, m)
	for i := range ids {
		ids[i] = i
	}
	run := func(parallelism int) ([]SplitPartial, *WorkerState) {
		t.Helper()
		procs(parallelism)
		ws := NewWorkerState()
		parts, replayed, err := MapRoundSplits(context.Background(), f, MethodHWTopk, p, 1, nil, ids, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(replayed) != 0 {
			t.Fatalf("round 1 replayed %v", replayed)
		}
		return parts, ws
	}
	want, wantWS := run(1)
	got, gotWS := run(4)
	for i := range want {
		if len(got[i].Pairs) != len(want[i].Pairs) {
			t.Fatalf("partial %d shape differs", i)
		}
		for j := range want[i].Pairs {
			if got[i].Pairs[j] != want[i].Pairs[j] {
				t.Fatalf("partial %d pair %d differs", i, j)
			}
		}
	}
	if gotWS.Entries() != wantWS.Entries() || gotWS.Bytes() != wantWS.Bytes() {
		t.Fatalf("worker state differs: %d/%d entries, %d/%d bytes",
			gotWS.Entries(), wantWS.Entries(), gotWS.Bytes(), wantWS.Bytes())
	}
}

// A failing split must cancel the fan-out and surface the error, not hang
// or return partial results.
func TestMapSplitsParallelError(t *testing.T) {
	f, _ := testDataset(t, 30000, 1<<10, 1.1, 1024, 7)
	setProcs(t)(4)
	p := Params{U: 1 << 10, K: 10, Seed: 44, SplitSize: 2048}
	if _, err := MapSplits(context.Background(), f, "Send-V", p, []int{0, 1, 99999}); err == nil {
		t.Fatal("out-of-range split accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapSplits(ctx, f, "Send-V", p, []int{0, 1, 2, 3})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fan-out returned %v", err)
	}
}
