package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"wavelethist/internal/datagen"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/mapred"
)

func partialTestFile(t testing.TB) *hdfs.File {
	t.Helper()
	fs := hdfs.NewFileSystem(4, 4<<10)
	f, err := datagen.GenerateZipf(fs, "z", datagen.NewZipfSpec(1<<13, 1<<10, 1.1, 5))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestMapMergeMatchesRun: splitting a build into MapSplits + MergePartials
// reproduces Run bit-for-bit for every one-round method, in any partial
// arrival order.
func TestMapMergeMatchesRun(t *testing.T) {
	f := partialTestFile(t)
	ctx := context.Background()
	for _, alg := range Algorithms() {
		name := alg.Name()
		if Rounds(name) != 1 {
			continue // multi-round: multiround_test.go
		}
		t.Run(name, func(t *testing.T) {
			p := Params{U: 1 << 10, K: 15, Epsilon: 0.01, Seed: 5}
			want, err := alg.Run(ctx, f, p)
			if err != nil {
				t.Fatal(err)
			}
			m := NumSplits(f, p)
			if m < 2 {
				t.Fatalf("need multiple splits, have %d", m)
			}
			// Map the splits in two interleaved passes, merging in
			// reversed order: coverage, not arrival order, must matter.
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
			got, err := MergePartials(ctx, f, name, p, parts)
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
			if got.Metrics.MapRecordsRead != want.Metrics.MapRecordsRead {
				t.Errorf("records read: got %d, want %d",
					got.Metrics.MapRecordsRead, want.Metrics.MapRecordsRead)
			}
		})
	}
}

func evens(m int) []int {
	var out []int
	for i := 0; i < m; i += 2 {
		out = append(out, i)
	}
	return out
}

func odds(m int) []int {
	var out []int
	for i := 1; i < m; i += 2 {
		out = append(out, i)
	}
	return out
}

// TestMergePartialsCoverage rejects missing, duplicate, and out-of-range
// split sets.
func TestMergePartialsCoverage(t *testing.T) {
	f := partialTestFile(t)
	ctx := context.Background()
	p := Params{U: 1 << 10, K: 10, Seed: 5}
	m := NumSplits(f, p)
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	parts, err := MapSplits(ctx, f, "Send-V", p, all)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergePartials(ctx, f, "Send-V", p, parts[:m-1]); err == nil {
		t.Error("accepted missing split")
	}
	dup := append(append([]SplitPartial{}, parts[:m-1]...), parts[0])
	if _, err := MergePartials(ctx, f, "Send-V", p, dup); err == nil {
		t.Error("accepted duplicate split")
	}
	if _, err := MapSplits(ctx, f, "Send-V", p, []int{m}); err == nil {
		t.Error("accepted out-of-range split")
	}
	if _, err := MapSplits(ctx, f, "H-WTopk", p, []int{0}); err == nil {
		t.Error("accepted multi-round method")
	}
}

// TestReduceRoundRejectsCorruptPartials: a partial that names a split
// outside the plan, whose pairs break key order, hold a key outside the
// stage's domain, a non-finite value or a tag the stage does not emit, or
// that carries a negative or non-finite counter (a corrupt worker frame)
// fails the round with an error, rather than indexing a reducer's
// per-split state or a sketch out of range, publishing a coefficient
// outside [0, u) or one a snapshot cannot hold, or silently changing the
// reducer's Reduce calls or the cost model.
func TestReduceRoundRejectsCorruptPartials(t *testing.T) {
	f := partialTestFile(t)
	ctx := context.Background()
	p := Params{U: 1 << 10, K: 10, Seed: 5}
	m := NumSplits(f, p)
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	type row struct {
		name, method string
		corrupt      func(part *SplitPartial)
	}
	rows := []row{{
		// Split 1's partial, k-th-highest mark included, claims split m:
		// round 1's reducer records each mark under its batch's split.
		MethodHWTopk, MethodHWTopk, func(part *SplitPartial) { part.SplitID = m },
	}, {
		MethodSendV, MethodSendV, func(part *SplitPartial) { part.Pairs[0], part.Pairs[1] = part.Pairs[1], part.Pairs[0] },
	}}
	// Out-of-domain keys that keep key order: u past the last key, and -1
	// for the first.
	for _, alg := range Algorithms() {
		rows = append(rows,
			row{alg.Name() + "/u+key", alg.Name(), func(part *SplitPartial) { part.Pairs[len(part.Pairs)-1].Key += p.U }},
			row{alg.Name() + "/-1", alg.Name(), func(part *SplitPartial) { part.Pairs[0].Key = -1 }})
	}
	// Per field: values a reducer would sum into a coefficient, tags from
	// another method or none at all, and the split's measured counters.
	fields := []struct {
		name    string
		methods []string
		corrupt func(part *SplitPartial)
	}{
		{"val=NaN", []string{MethodSendV, MethodBasicS, MethodImprovedS}, func(part *SplitPartial) { part.Pairs[0].Val = math.NaN() }},
		{"val=+Inf", []string{MethodSendV, MethodBasicS, MethodImprovedS}, func(part *SplitPartial) { part.Pairs[0].Val = math.Inf(1) }},
		{"tag=null", []string{MethodSendV, MethodBasicS, MethodImprovedS, MethodHWTopk}, func(part *SplitPartial) { part.Pairs[0].Tag = mapred.TagNull }},
		{"tag=mark", []string{MethodSendV, MethodTwoLevelS}, func(part *SplitPartial) { part.Pairs[0].Tag = mapred.TagMarkHigh }},
		{"tag=99", methodNames(), func(part *SplitPartial) { part.Pairs[0].Tag = 99 }},
		// A split's DataNode is the job's, looked up by the partial's
		// split id: an id no split of the plan has is refused first.
		{"node=2^40", methodNames(), func(part *SplitPartial) { part.SplitID = 1 << 40 }},
		{"node=-1", []string{MethodSendV}, func(part *SplitPartial) { part.SplitID = -1 }},
		{"cpu=NaN", methodNames(), func(part *SplitPartial) { part.CPUUnits = math.NaN() }},
		{"cpu=+Inf", []string{MethodSendV}, func(part *SplitPartial) { part.CPUUnits = math.Inf(1) }},
		{"cpu=-1", []string{MethodSendV}, func(part *SplitPartial) { part.CPUUnits = -1 }},
		{"records=-1", []string{MethodSendV}, func(part *SplitPartial) { part.RecordsRead = -1 }},
		{"bytes=-1", []string{MethodSendV}, func(part *SplitPartial) { part.BytesRead = -1 }},
		{"input=-1", []string{MethodSendV}, func(part *SplitPartial) { part.InputBytes = -1 }},
	}
	for _, fd := range fields {
		for _, method := range fd.methods {
			rows = append(rows, row{method + "/" + fd.name, method, fd.corrupt})
		}
	}
	for _, tc := range rows {
		method, corrupt := tc.method, tc.corrupt
		t.Run(tc.name, func(t *testing.T) {
			parts, _, err := MapRoundSplits(ctx, f, method, p, 1, nil, all, NewWorkerState())
			if err != nil {
				t.Fatal(err)
			}
			if len(parts[1].Pairs) == 0 {
				t.Fatal("split 1 shipped no pairs")
			}
			corrupt(&parts[1])
			plan, err := NewRoundPlan(f, method, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.ReduceRound(ctx, 1, parts); err == nil {
				t.Fatal("reduced a corrupt partial")
			}
		})
	}
}

// TestOutputRefusesNonFiniteCoefficient: every pair passes deliver's
// finite-value check, but two splits' values of one key sum past the
// float range, so the reduce lands on ±Inf or NaN coefficients. Output
// and Output2D refuse them, naming the method and the coefficient, so a
// build never publishes a histogram a snapshot cannot hold.
func TestOutputRefusesNonFiniteCoefficient(t *testing.T) {
	f := partialTestFile(t)
	ctx := context.Background()
	for _, method := range []string{MethodSendV, MethodSendCoef, MethodSendV2D} {
		t.Run(method, func(t *testing.T) {
			p := Params{U: 1 << 10, K: 5, Seed: 5}
			if method == MethodSendV2D {
				p.U = 1 << 5
			}
			plan, err := NewRoundPlan(f, method, p)
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int, plan.NumSplits())
			for i := range all {
				all[i] = i
			}
			parts, _, err := MapRoundSplits(ctx, f, method, p, 1, nil, all, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range parts {
				for j := range parts[i].Pairs {
					parts[i].Pairs[j].Val = 1e308
				}
			}
			if err := plan.ReduceRound(ctx, 1, parts); err != nil {
				t.Fatalf("finite pairs refused: %v", err)
			}
			if method == MethodSendV2D {
				_, err = plan.Output2D()
			} else {
				_, err = plan.Output()
			}
			if err == nil || !strings.Contains(err.Error(), method) || !strings.Contains(err.Error(), "coefficient ") {
				t.Fatalf("err = %v, want the method and a non-finite coefficient named", err)
			}
		})
	}
}

// methodNames are the seven 1D methods.
func methodNames() []string {
	var out []string
	for _, alg := range Algorithms() {
		out = append(out, alg.Name())
	}
	return out
}

// TestReduceRoundFailurePoisonsPlan: H-WTopk's later rounds add into the
// candidate table round 1 built, so a round-3 reduce that fails after
// summing some splits leaves the plan failed. Retrying it with the good
// partials would count those splits twice; it must return an error, and
// so must Output.
func TestReduceRoundFailurePoisonsPlan(t *testing.T) {
	f := partialTestFile(t)
	ctx := context.Background()
	p := Params{U: 1 << 10, K: 10, Seed: 5}
	plan, err := NewRoundPlan(f, MethodHWTopk, p)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.NumSplits()
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}
	ws := NewWorkerState()
	var good []SplitPartial
	for r := 1; r <= 3; r++ {
		bcast := plan.Broadcast(r)
		if good, _, err = MapRoundSplits(ctx, f, MethodHWTopk, p, r, bcast, all, ws); err != nil {
			t.Fatal(err)
		}
		if r == 3 {
			break
		}
		if err := plan.ReduceRound(ctx, r, good); err != nil {
			t.Fatal(err)
		}
	}
	// The last split also ships the smallest non-candidate, in key order.
	r, err := decodeIndexSet(plan.Broadcast(3)[16:])
	if err != nil {
		t.Fatal(err)
	}
	var x int64
	for _, c := range r {
		if c != x {
			break
		}
		x++
	}
	bad := slices.Clone(good)
	last := &bad[m-1]
	at, _ := slices.BinarySearchFunc(last.Pairs, x, func(kv mapred.KV, x int64) int { return cmp.Compare(kv.Key, x) })
	last.Pairs = slices.Insert(slices.Clone(last.Pairs), at, mapred.KV{Key: x, Val: 1})
	if err := plan.ReduceRound(ctx, 3, bad); err == nil || !strings.Contains(err.Error(), "non-candidate") {
		t.Fatalf("round 3 with a non-candidate pair: err = %v", err)
	}
	if err := plan.ReduceRound(ctx, 3, good); err == nil {
		t.Error("retried round 3 on a plan whose round-3 reduce failed")
	}
	if _, err := plan.Output(); err == nil {
		t.Error("Output of a plan whose round-3 reduce failed")
	}
}

// TestEncodeDecodePartials round-trips the wire encoding — layout 3: a
// version word and a varint count, then per partial varint counters, raw
// CPUUnits and a varint pair count, and per pair a key delta, the tag and
// a value — and rejects corrupt payloads and payloads of another layout.
func TestEncodeDecodePartials(t *testing.T) {
	in := []SplitPartial{
		{
			SplitID: 3, RecordsRead: 100, BytesRead: 400,
			InputBytes: 400, CPUUnits: 12.5,
			Pairs: []mapred.KV{
				{Key: 7, Val: 2},
				{Key: 9, Val: -1.25, Tag: mapred.TagNull},
			},
		},
		{SplitID: 0, Pairs: nil},
	}
	b := EncodePartials(in)
	// 8 version + 1 count; split 3: 1+2+2+2 counters, 8 CPU, 1 pairs,
	// then (1 delta, 1 tag, 1 value) and (1, 1, 0 marker + 8 raw bytes);
	// split 0: 4 one-byte counters, 8 CPU, 1 pairs.
	if want := 9 + (16 + 3 + 11) + 13; len(b) != want {
		t.Fatalf("encoded %d bytes, want %d", len(b), want)
	}
	out, err := DecodePartials(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("count: got %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].SplitID != in[i].SplitID || out[i].RecordsRead != in[i].RecordsRead || out[i].BytesRead != in[i].BytesRead ||
			out[i].InputBytes != in[i].InputBytes || out[i].CPUUnits != in[i].CPUUnits || len(out[i].Pairs) != len(in[i].Pairs) {
			t.Fatalf("partial %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
		for j := range in[i].Pairs {
			if out[i].Pairs[j] != in[i].Pairs[j] {
				t.Fatalf("pair %d/%d mismatch", i, j)
			}
		}
	}
	hugeCount := slices.Concat(b[:8], []byte{255, 255, 255, 255, 255, 255, 255, 127}, b[16:])
	for _, bad := range [][]byte{nil, b[:4], b[:12], b[:len(b)-3], hugeCount} {
		if _, err := DecodePartials(bad); err == nil {
			t.Errorf("decoded corrupt payload of %d bytes", len(bad))
		}
	}
	// The layout before the version word opened with the partial count.
	for _, word := range []uint64{0, 1, 2, partialsVersion - 1, partialsVersion + 1} {
		old := slices.Concat(mapred.AppendUint64(nil, word), b[8:])
		if parts, err := DecodePartials(old); err == nil || !strings.Contains(err.Error(), "layout word") {
			t.Errorf("payload opening with %#x: decoded %d partials, err = %v", word, len(parts), err)
		}
	}
}

// TestRunRoundCancel: a canceled context aborts an in-process build.
func TestRunRoundCancel(t *testing.T) {
	f := partialTestFile(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSendV().Run(ctx, f, Params{U: 1 << 10, K: 10, Seed: 1}); err == nil {
		t.Fatal("expected cancellation error")
	}
	if _, err := NewHWTopk().Run(ctx, f, Params{U: 1 << 10, K: 10, Seed: 1}); err == nil {
		t.Fatal("expected cancellation error (multi-round)")
	}
}
