package core

import (
	"context"
	"math"
	"testing"

	"wavelethist/internal/datagen"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
)

// fuzzReduceFile is a build input every method accepts, small enough that
// the fuzzer minimizes a real frame in seconds: 512 keys below 16, two
// splits; 1D methods read it over u = 16 and 2D methods as packed keys
// over [0, 4)².
func fuzzReduceFile(t testing.TB) *hdfs.File {
	t.Helper()
	fs := hdfs.NewFileSystem(4, 1<<10)
	f, err := datagen.GenerateZipf(fs, "fz", datagen.NewZipfSpec(1<<9, 1<<4, 1.1, 9))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func fuzzReduceParams(method string) Params {
	if spec, _ := lookup(method); spec.dim == 2 {
		return Params{U: 1 << 2, K: 4, Epsilon: 0.1, Seed: 5}
	}
	return Params{U: 1 << 4, K: 4, Epsilon: 0.1, Seed: 5}
}

// FuzzReduceRound: arbitrary bytes, decoded as one round's partials and
// reduced by every method in the table — round 1 + round%NumRounds, the
// rounds before it run clean in this process, the rounds after it too —
// end in an error or a histogram of finite coefficients, never a panic.
// The seed corpus is every method's real frames, one per round.
func FuzzReduceRound(f *testing.F) {
	file := fuzzReduceFile(f)
	ctx := context.Background()
	for _, method := range Methods() {
		p := fuzzReduceParams(method)
		plan, err := NewRoundPlan(file, method, p)
		if err != nil {
			f.Fatal(err)
		}
		ids := make([]int, plan.NumSplits())
		for i := range ids {
			ids[i] = i
		}
		ws := NewWorkerState()
		for r := 1; r <= plan.NumRounds(); r++ {
			parts, _, err := MapRoundSplits(ctx, file, method, p, r, plan.Broadcast(r), ids, ws)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(uint8(r-1), EncodePartials(parts))
			if err := plan.ReduceRound(ctx, r, parts); err != nil {
				f.Fatal(err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, round uint8, data []byte) {
		parts, err := DecodePartials(data)
		if err != nil {
			return
		}
		for _, method := range Methods() {
			plan, err := NewRoundPlan(file, method, fuzzReduceParams(method))
			if err != nil {
				t.Fatal(err)
			}
			r := 1 + int(round)%plan.NumRounds()
			if err := plan.Run(ctx, r-1, plan.local); err != nil {
				t.Fatalf("%s: clean rounds before %d: %v", method, r, err)
			}
			plan.Broadcast(r)
			if err := plan.ReduceRound(ctx, r, parts); err != nil {
				continue
			}
			if err := plan.Run(ctx, plan.NumRounds(), plan.local); err != nil {
				continue
			}
			var coefs []wavelet.Coef
			if plan.spec.dim == 2 {
				out, err := plan.Output2D()
				if (out == nil) == (err == nil) {
					t.Fatalf("%s: Output2D = %v, %v", method, out, err)
				}
				if out != nil {
					coefs = out.Rep.Coefs
				}
			} else {
				out, err := plan.Output()
				if (out == nil) == (err == nil) {
					t.Fatalf("%s: Output = %v, %v", method, out, err)
				}
				if out != nil {
					coefs = out.Rep.Coefs
				}
			}
			for _, c := range coefs {
				if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
					t.Fatalf("%s: output coefficient %d is %v", method, c.Index, c.Value)
				}
			}
		}
	})
}
