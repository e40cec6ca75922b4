package core

import (
	"context"
	"errors"
	"testing"

	"wavelethist/internal/wavelet"
)

// TestMultiRoundParity1D: H-WTopk through MapRoundSplits + RoundPlan over
// several worker leases is bit-identical to the simulated three-round run,
// including the modeled metrics.
func TestMultiRoundParity1D(t *testing.T) {
	f := partialTestFile(t)
	p := Params{U: 1 << 10, K: 15, Seed: 5}
	ctx := context.Background()
	want, err := NewHWTopk().Run(ctx, f, p)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := NewRoundPlan(f, "H-WTopk", p)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.NumSplits()
	leases := []*WorkerState{NewWorkerState(), NewWorkerState(), NewWorkerState()}
	for r := 1; r <= plan.NumRounds(); r++ {
		bcast := plan.Broadcast(r)
		var parts []SplitPartial
		for id := 0; id < m; id++ {
			ps, replayed, err := MapRoundSplits(ctx, f, "H-WTopk", p, r, bcast, []int{id}, leases[id%3])
			if err != nil {
				t.Fatalf("round %d split %d: %v", r, id, err)
			}
			if len(replayed) != 0 {
				t.Fatalf("round %d split %d: unexpected replay %v", r, id, replayed)
			}
			parts = append(parts, ps...)
		}
		if err := plan.ReduceRound(ctx, r, parts); err != nil {
			t.Fatalf("reduce round %d: %v", r, err)
		}
	}
	got, err := plan.Output()
	if err != nil {
		t.Fatal(err)
	}
	compareCoefs(t, got.Rep.Coefs, want.Rep.Coefs)
	if got.Metrics.TotalCommBytes() != want.Metrics.TotalCommBytes() {
		t.Errorf("modeled comm: got %d, want %d", got.Metrics.TotalCommBytes(), want.Metrics.TotalCommBytes())
	}
	if got.Metrics.Rounds != 3 || want.Metrics.Rounds != 3 {
		t.Errorf("rounds: got %d, want 3", got.Metrics.Rounds)
	}
	if plan.Candidates() <= 0 {
		t.Errorf("candidate set size not recorded: %d", plan.Candidates())
	}
}

// TestMultiRoundReplayParity: losing a worker's state mid-protocol (splits
// handed to a lease that never ran their earlier rounds) triggers replay
// and still yields the exact simulated result.
func TestMultiRoundReplayParity(t *testing.T) {
	f := partialTestFile(t)
	p := Params{U: 1 << 10, K: 15, Seed: 5}
	ctx := context.Background()
	want, err := NewHWTopk().Run(ctx, f, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, from := range map[string]int{"mid-round-2": 2, "mid-round-3": 3} {
		from := from
		t.Run(name, func(t *testing.T) {
			plan, err := NewRoundPlan(f, "H-WTopk", p)
			if err != nil {
				t.Fatal(err)
			}
			m := plan.NumSplits()
			leases := []*WorkerState{NewWorkerState(), NewWorkerState(), NewWorkerState()}
			replayedTotal := 0
			for r := 1; r <= plan.NumRounds(); r++ {
				bcast := plan.Broadcast(r)
				var parts []SplitPartial
				for id := 0; id < m; id++ {
					w := id % 3
					if id < 4 && r >= from {
						w = (w + 1) % 3 // splits 0-3 orphaned from round `from` on
					}
					ps, replayed, err := MapRoundSplits(ctx, f, "H-WTopk", p, r, bcast, []int{id}, leases[w])
					if err != nil {
						t.Fatalf("round %d split %d: %v", r, id, err)
					}
					replayedTotal += len(replayed)
					parts = append(parts, ps...)
				}
				if err := plan.ReduceRound(ctx, r, parts); err != nil {
					t.Fatalf("reduce round %d: %v", r, err)
				}
			}
			if replayedTotal == 0 {
				t.Fatal("expected replays after state loss")
			}
			got, err := plan.Output()
			if err != nil {
				t.Fatal(err)
			}
			compareCoefs(t, got.Rep.Coefs, want.Rep.Coefs)
		})
	}
}

// TestMultiRoundParity2D: the packed-domain H-WTopk-2D flows through the
// same engine and matches the simulated 2D run.
func TestMultiRoundParity2D(t *testing.T) {
	f, _ := make2DDataset(t, 1<<12, 1<<5, 4<<10, 9)
	p := Params{U: 1 << 5, K: 12, Seed: 9}
	ctx := context.Background()
	want, err := NewHWTopk2D().Run(ctx, f, p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewRoundPlan(f, "H-WTopk-2D", p)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.NumSplits()
	leases := []*WorkerState{NewWorkerState(), NewWorkerState()}
	for r := 1; r <= plan.NumRounds(); r++ {
		bcast := plan.Broadcast(r)
		var parts []SplitPartial
		for id := 0; id < m; id++ {
			ps, _, err := MapRoundSplits(ctx, f, "H-WTopk-2D", p, r, bcast, []int{id}, leases[id%2])
			if err != nil {
				t.Fatalf("round %d split %d: %v", r, id, err)
			}
			parts = append(parts, ps...)
		}
		if err := plan.ReduceRound(ctx, r, parts); err != nil {
			t.Fatalf("reduce round %d: %v", r, err)
		}
	}
	got, err := plan.Output2D()
	if err != nil {
		t.Fatal(err)
	}
	compareCoefs(t, got.Rep.Coefs, want.Rep.Coefs)
}

// TestRoundsAndUnsupported: round counts and the typed unsupported error.
func TestRoundsAndUnsupported(t *testing.T) {
	if got := Rounds("H-WTopk"); got != 3 {
		t.Errorf("Rounds(H-WTopk) = %d, want 3", got)
	}
	if got := Rounds("H-WTopk-2D"); got != 3 {
		t.Errorf("Rounds(H-WTopk-2D) = %d, want 3", got)
	}
	if got := Rounds("Send-V"); got != 1 {
		t.Errorf("Rounds(Send-V) = %d, want 1", got)
	}
	if got := Rounds("nope"); got != 0 {
		t.Errorf("Rounds(nope) = %d, want 0", got)
	}
	for _, spec := range methods {
		plan, err := NewRoundPlan(partialTestFile(t), spec.name, Params{U: 1 << 5})
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		if plan.NumRounds() != spec.rounds {
			t.Errorf("%s: plan has %d rounds, table says %d", spec.name, plan.NumRounds(), spec.rounds)
		}
	}
	if _, err := NewRoundPlan(partialTestFile(t), "nope", Params{U: 1 << 10}); !errors.Is(err, ErrUnsupportedMethod) {
		t.Errorf("want ErrUnsupportedMethod, got %v", err)
	}
	plan, err := NewRoundPlan(partialTestFile(t), "Send-V", Params{U: 1 << 10})
	if err != nil || plan.NumRounds() != 1 || plan.Broadcast(1) != nil || plan.Broadcast(2) != nil {
		t.Errorf("Send-V must plan as one round with no broadcast (plan %+v, err %v)", plan, err)
	}
}

func compareCoefs(t *testing.T, got, want []wavelet.Coef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("coef count: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coef %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}
