package core

import (
	"context"
	"testing"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
)

func twoDTestFile(t testing.TB, side int64) *hdfs.File {
	t.Helper()
	fs := hdfs.NewFileSystem(4, 2<<10)
	w, err := fs.Create("grid", 8) // packed keys need 8-byte records
	if err != nil {
		t.Fatal(err)
	}
	// A skewed synthetic grid: key (x, y) = (i % side, i² % side).
	for i := int64(0); i < 6000; i++ {
		w.Append(wavelet.Key2D(i%side, (i*i)%side, side))
	}
	return w.Close()
}

// mergePartials2D is MergePartials for a one-round 2D method.
func mergePartials2D(ctx context.Context, f *hdfs.File, method string, p Params, parts []SplitPartial) (*Output2D, error) {
	plan, err := NewRoundPlan(f, method, p)
	if err != nil {
		return nil, err
	}
	if err := plan.ReduceRound(ctx, 1, parts); err != nil {
		return nil, err
	}
	return plan.Output2D()
}

// TestMapMerge2DMatchesRun: MapSplits + ReduceRound reproduces the
// one-round 2D methods' Run bit-for-bit, in any partial arrival order.
func TestMapMerge2DMatchesRun(t *testing.T) {
	const side = 1 << 5
	f := twoDTestFile(t, side)
	ctx := context.Background()
	for _, name := range []string{MethodSendV2D, MethodTwoLevelS2D} {
		t.Run(name, func(t *testing.T) {
			if Rounds(name) != 1 {
				t.Fatalf("%s should be a one-round 2D method (rounds=%d)", name, Rounds(name))
			}
			p := Params{U: side, K: 12, Epsilon: 0.05, Seed: 7}
			alg, err := ByName2D(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := alg.Run(ctx, f, p)
			if err != nil {
				t.Fatal(err)
			}
			m := NumSplits(f, p)
			if m < 2 {
				t.Fatalf("need multiple splits, have %d", m)
			}
			var parts []SplitPartial
			for _, ids := range [][]int{evens(m), odds(m)} {
				ps, err := MapSplits(ctx, f, name, p, ids)
				if err != nil {
					t.Fatal(err)
				}
				parts = append(parts, ps...)
			}
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			got, err := mergePartials2D(ctx, f, name, p, parts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rep.Coefs) != len(want.Rep.Coefs) {
				t.Fatalf("coef count: got %d, want %d", len(got.Rep.Coefs), len(want.Rep.Coefs))
			}
			for i := range want.Rep.Coefs {
				if got.Rep.Coefs[i] != want.Rep.Coefs[i] {
					t.Fatalf("coef %d: got %+v, want %+v", i, got.Rep.Coefs[i], want.Rep.Coefs[i])
				}
			}
			if got.Metrics.TotalCommBytes() != want.Metrics.TotalCommBytes() {
				t.Errorf("modeled comm: got %d, want %d",
					got.Metrics.TotalCommBytes(), want.Metrics.TotalCommBytes())
			}
		})
	}
}

// TestDistributable2DOneRound: the 2D baselines are one-round plans, and a
// one-round 2D merge rejects a 1D or multi-round method name.
func TestDistributable2DOneRound(t *testing.T) {
	for _, name := range []string{MethodSendV2D, MethodTwoLevelS2D} {
		if Rounds(name) != 1 {
			t.Errorf("%s should be a one-round method", name)
		}
	}
	f := twoDTestFile(t, 1<<4)
	if _, err := mergePartials2D(context.Background(), f, MethodHWTopk2D, Params{U: 1 << 4, K: 4}, nil); err == nil {
		t.Error("one-round merge accepted the multi-round H-WTopk-2D")
	}
	if _, err := mergePartials2D(context.Background(), f, "Send-V", Params{U: 1 << 4, K: 4}, nil); err == nil {
		t.Error("2D merge accepted a 1D method")
	}
}
