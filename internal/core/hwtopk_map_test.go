package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/heap"
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
	"wavelethist/internal/zipf"
)

// The three H-WTopk mappers skip work whose outcome is known: round 1
// offers a heap only what can enter it and keeps v_j instead of its
// coefficients, round 2 keeps the round-1 value when nothing clears T1/m,
// round 3 probes the candidates. Each is pinned here against the plain
// form it replaced.

// ---------- Round 1: two-sided selection ----------

// selectionPool holds the scores selection cases draw their alphabets
// from: both zeros, ties of either sign, an infinity and a NaN.
var selectionPool = []float64{math.Copysign(0, -1), 0, 1, -1, 2.5, -2.5, math.Inf(1), math.NaN()}

// selectionCoefs decodes data into coefficients over a 3-5 value alphabet
// taken from selectionPool, so equal scores are dense and straddle both
// heap boundaries. Indices are distinct, ascending or descending.
func selectionCoefs(data []byte) []wavelet.Coef {
	if len(data) < 2 {
		return nil
	}
	alpha := make([]float64, 3+int(data[0])%3)
	for a := range alpha {
		alpha[a] = selectionPool[(int(data[1])+a)%len(selectionPool)]
	}
	coefs := make([]wavelet.Coef, len(data)-2)
	for i, b := range data[2:] {
		idx := int64(i)
		if data[0]&0x80 != 0 {
			idx = int64(len(coefs) - i)
		}
		coefs[i] = wavelet.Coef{Index: idx, Value: alpha[int(b)%len(alpha)]}
	}
	return coefs
}

// sameItems compares item lists element for element, scores by bits.
func sameItems(a, b []heap.Item) bool {
	return slices.EqualFunc(a, b, func(x, y heap.Item) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// checkTwoSided compares selectTwoSided with offering every coefficient to
// plain heaps: the same sorted selections, and the same heap layouts.
func checkTwoSided(t *testing.T, coefs []wavelet.Coef, k int) {
	t.Helper()
	sel := selectTwoSided(coefs, k)
	hi, lo := sel.hi, sel.lo
	refHi, refLo := heap.NewTopK(k), heap.NewBottomK(k)
	for _, c := range coefs {
		refHi.Push(heap.Item{ID: c.Index, Score: c.Value})
		refLo.Push(heap.Item{ID: c.Index, Score: c.Value})
	}
	if !sameItems(hi.Sorted(), refHi.Sorted()) || !sameItems(hi.Items(), refHi.Items()) {
		t.Fatalf("k=%d top-k of %v:\n got %v\nwant %v", k, coefs, hi.Sorted(), refHi.Sorted())
	}
	if !sameItems(lo.Sorted(), refLo.Sorted()) || !sameItems(lo.Items(), refLo.Items()) {
		t.Fatalf("k=%d bottom-k of %v:\n got %v\nwant %v", k, coefs, lo.Sorted(), refLo.Sorted())
	}
}

func TestTwoSidedSelectionMatchesUnfiltered(t *testing.T) {
	zero, negZero := 0.0, math.Copysign(0, -1)
	fixed := [][]wavelet.Coef{
		nil,
		{{Index: 7, Value: 3}},
		{{Index: 0, Value: zero}, {Index: 1, Value: negZero}, {Index: 2, Value: zero}, {Index: 3, Value: negZero}},
		{{Index: 9, Value: 1}, {Index: 4, Value: 1}, {Index: 6, Value: -1}, {Index: 2, Value: 1}, {Index: 1, Value: -1}},
		{{Index: 0, Value: math.NaN()}, {Index: 1, Value: 5}, {Index: 2, Value: math.NaN()}, {Index: 3, Value: -5}},
	}
	for _, coefs := range fixed {
		for _, k := range []int{0, 1, 2, len(coefs), len(coefs) + 3} {
			checkTwoSided(t, coefs, k)
		}
	}
	r := zipf.NewRNG(27)
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 2+r.Int63n(200))
		for i := range data {
			data[i] = byte(r.Int63n(256))
		}
		coefs := selectionCoefs(data)
		for _, k := range []int{0, 1, 1 + int(r.Int63n(8)), len(coefs), len(coefs) + 1} {
			checkTwoSided(t, coefs, k)
		}
	}
}

func FuzzTwoSidedSelection(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 0, 1, 2, 0}, uint8(2))
	f.Add([]byte{0x82, 6, 0, 1, 1, 0, 3, 4, 0, 1}, uint8(1))
	f.Add([]byte{1, 1, 9}, uint8(0))
	f.Add([]byte{2, 4, 5, 5, 5, 5, 5, 5}, uint8(30))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		checkTwoSided(t, selectionCoefs(data), int(k%40))
	})
}

// ---------- Rounds 2 and 3: the state-file mappers ----------

// encodeStateRef is the round-state layout written out longhand: the
// count, then (index, value bits) per record, little-endian.
func encodeStateRef(coefs []wavelet.Coef) []byte {
	b := binary.LittleEndian.AppendUint64(nil, uint64(len(coefs)))
	for _, c := range coefs {
		b = binary.LittleEndian.AppendUint64(b, uint64(c.Index))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Value))
	}
	return b
}

// stateMapJob is a one-split job whose mapper reads only its own fields
// and store: the round-2 or round-3 map task of split 0. RunMapSplit never
// runs the reducer; the job only needs one to be valid.
func stateMapJob(mapper mapred.Mapper, store *mapred.StateStore) *mapred.Job {
	return &mapred.Job{
		Name:      "hwtopk-state",
		Splits:    []hdfs.Split{{}},
		Input:     mapred.NoInput{},
		NewMapper: func(hdfs.Split) mapred.Mapper { return mapper },
		Reducer:   &hwRound3Reducer{},
		PairBytes: fixedBytes(16),
		State:     store,
	}
}

// explicitState is a split state whose file is coefs, every coefficient
// explicit (the 2D form).
func explicitState(coefs []wavelet.Coef) *hwSplitState {
	return &hwSplitState{coefs: coefs, n: len(coefs)}
}

// round2Job is split 0's round-2 map task over round-1 state r1 at T1/m.
func round2Job(r1 *hwSplitState, t1OverM float64) (*mapred.Job, *mapred.StateStore) {
	store := mapred.NewStateStore()
	store.Adopt(hwStateR1(0), r1)
	return stateMapJob(hwRound2Mapper{thresh: t1OverM}, store), store
}

func TestHWRound2StateBytes(t *testing.T) {
	const thresh, n = 1.0, 64
	// Every base record is at most T1/m in magnitude, some exactly at it
	// (cleared means strictly above); lift(i) puts record i above.
	base := make([]wavelet.Coef, n)
	for i := range base {
		base[i] = wavelet.Coef{Index: int64(3*i + 1), Value: float64(i%5-2) * 0.5}
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for _, tc := range []struct {
		name  string
		coefs []wavelet.Coef
		clear []int
	}{
		{"empty state", nil, nil},
		{"none clears", base, nil},
		{"first clears", base, []int{0}},
		{"last clears", base, []int{n - 1}},
		{"middle clears", base, []int{n / 2}},
		{"first, middle and last clear", base, []int{0, n / 2, n - 1}},
		{"all clear", base, all},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coefs := slices.Clone(tc.coefs)
			var want []mapred.KV
			for _, i := range tc.clear {
				coefs[i].Value = -2 - float64(i)
				want = append(want, mapred.KV{Key: coefs[i].Index, Val: coefs[i].Value})
			}
			var survivors []wavelet.Coef
			for i, c := range coefs {
				if !slices.Contains(tc.clear, i) {
					survivors = append(survivors, c)
				}
			}
			r1 := explicitState(coefs)
			r1Before := r1.File()
			job, store := round2Job(r1, thresh)
			res, err := mapred.RunMapSplit(context.Background(), job, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := store.Get(hwStateR2(0)), encodeStateRef(survivors); !bytes.Equal(got, want) {
				t.Errorf("round-2 state:\n got %x\nwant %x", got, want)
			}
			if got := store.Value(hwStateR2(0)).Size(); got != int64(8+16*len(survivors)) {
				t.Errorf("round-2 state size %d, want %d", got, 8+16*len(survivors))
			}
			if len(tc.clear) == 0 && store.Value(hwStateR2(0)) != mapred.StateFile(r1) {
				t.Error("round 2 replaced a state nothing cleared")
			}
			if !slices.Equal(res.Pairs, want) {
				t.Errorf("pairs %v, want %v", res.Pairs, want)
			}
			if !bytes.Equal(store.Get(hwStateR1(0)), r1Before) || !bytes.Equal(r1Before, encodeStateRef(coefs)) {
				t.Error("round 2 modified the round-1 state")
			}
			// The scan of every record, plus the engine's unit per pair.
			if res.CPUUnits != float64(len(coefs)+len(want)) || res.InputBytes != int64(len(r1Before)) {
				t.Errorf("charged %v work, %d bytes; want %d, %d", res.CPUUnits, res.InputBytes, len(coefs)+len(want), len(r1Before))
			}
		})
	}

	t.Run("none clears allocates no state", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates")
		}
		coefs := make([]wavelet.Coef, 1<<14)
		for i := range coefs {
			coefs[i] = wavelet.Coef{Index: int64(i), Value: 0.25}
		}
		r1 := explicitState(coefs)
		job, _ := round2Job(r1, thresh)
		ctx := context.Background()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := mapred.RunMapSplit(ctx, job, 0); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
		t.Logf("round-2 map task over a %d-byte file: %.0f allocs, %d bytes", r1.Size(), allocs, perRun)
		if perRun >= uint64(r1.Size())/8 {
			t.Errorf("round-2 map task allocated %d bytes per run over a %d-byte file that nothing clears", perRun, r1.Size())
		}
	})
}

// mergeJoinRef is round 3's scan form: walk the state, emitting each
// record whose index is in the sorted r.
func mergeJoinRef(state []wavelet.Coef, r []int64) []mapred.KV {
	var out []mapred.KV
	for _, c := range state {
		for len(r) > 0 && r[0] < c.Index {
			r = r[1:]
		}
		if len(r) > 0 && r[0] == c.Index {
			out = append(out, mapred.KV{Key: c.Index, Val: c.Value})
		}
	}
	return out
}

func TestHWRound3ProbeMatchesMergeJoin(t *testing.T) {
	type tcase struct {
		name  string
		state []int64
		r     []int64
	}
	st := []int64{5, 9, 10, 40, 41, 100}
	cases := []tcase{
		{"empty state", nil, []int64{1, 5}},
		{"empty state and R", nil, nil},
		{"empty R", st, nil},
		{"absent", st, []int64{6, 7, 11, 99}},
		{"below first", st, []int64{0, 1, 4, 5}},
		{"above last", st, []int64{100, 101, 1 << 40}},
		{"every", st, st},
		{"mixed", st, []int64{0, 9, 10, 11, 41, 99, 100, 200}},
	}
	r := zipf.NewRNG(28)
	for trial := 0; trial < 200; trial++ {
		var c tcase
		c.name = "random"
		span := 1 + r.Int63n(600)
		for x := int64(0); x < span; x++ {
			if r.Int63n(3) == 0 {
				c.state = append(c.state, x)
			}
			if r.Int63n(5) == 0 {
				c.r = append(c.r, x)
			}
		}
		cases = append(cases, c)
	}
	for _, tc := range cases {
		state := make([]wavelet.Coef, len(tc.state))
		for i, x := range tc.state {
			state[i] = wavelet.Coef{Index: x, Value: float64(x) - 0.5}
		}
		r2 := explicitState(state)
		store := mapred.NewStateStore()
		store.Adopt(hwStateR2(0), r2)
		res, err := mapred.RunMapSplit(context.Background(), stateMapJob(hwRound3Mapper{r: tc.r}, store), 0)
		if err != nil {
			t.Fatal(err)
		}
		want := mergeJoinRef(state, tc.r)
		if !slices.Equal(res.Pairs, want) {
			t.Fatalf("%s: state %v, R %v: pairs %v, want %v", tc.name, tc.state, tc.r, res.Pairs, want)
		}
		// The paper's scan of every record, plus the engine's unit per pair.
		if res.CPUUnits != float64(len(state)+len(want)) || res.InputBytes != r2.Size() {
			t.Errorf("%s: charged %v work, %d bytes; want %d, %d", tc.name, res.CPUUnits, res.InputBytes, len(state)+len(want), r2.Size())
		}
	}
}
