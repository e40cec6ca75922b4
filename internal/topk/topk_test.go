package topk

import (
	"math"
	"testing"
	"testing/quick"

	"wavelethist/internal/zipf"
)

// bruteForce is the oracle: the exact top-k by |aggregate score|.
func bruteForce(nodes []Scores, k int) []Item {
	agg := make(map[int64]float64)
	for _, n := range nodes {
		for id, v := range n {
			agg[id] += v
		}
	}
	return selectTop(agg, k, math.Abs)
}

func magnitudes(items []Item) []float64 {
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = math.Abs(it.Score)
	}
	return out
}

// sameTop compares a protocol result against brute force, tolerating ties:
// the sorted magnitude sequences must match exactly, and each returned
// item's exact aggregate must equal its reported score.
func sameTopMagnitude(t *testing.T, nodes []Scores, got []Item, k int) {
	t.Helper()
	want := bruteForce(nodes, k)
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	gm, wm := magnitudes(got), magnitudes(want)
	for i := range gm {
		if math.Abs(gm[i]-wm[i]) > 1e-9 {
			t.Fatalf("magnitude[%d] = %v, want %v (got %v want %v)", i, gm[i], wm[i], got, want)
		}
	}
	// Verify reported scores are the true aggregates.
	for _, it := range got {
		var s float64
		for _, n := range nodes {
			s += n[it.ID]
		}
		if math.Abs(s-it.Score) > 1e-9 {
			t.Fatalf("item %d reported %v, true aggregate %v", it.ID, it.Score, s)
		}
	}
}

func TestTwoSidedPaperMotivation(t *testing.T) {
	// The case plain TPUT cannot handle: an item whose large-magnitude
	// aggregate is NEGATIVE, assembled from locally-unremarkable scores.
	nodes := []Scores{
		{1: -40, 2: 50, 3: 1},
		{1: -40, 2: -45, 4: 2},
		{1: -40, 2: 1, 5: 3},
	}
	// Aggregates: item1 = -120 (|.|=120), item2 = 6, others tiny.
	got, _ := TwoSided(nodes, 1)
	if len(got) != 1 || got[0].ID != 1 || got[0].Score != -120 {
		t.Fatalf("got %v, want item 1 with score -120", got)
	}
}

func TestTwoSidedMixedSigns(t *testing.T) {
	nodes := []Scores{
		{1: 100, 2: -90, 3: 10, 4: -5},
		{1: -95, 2: -90, 3: 12, 5: 4},
	}
	// item1 = 5, item2 = -180, item3 = 22.
	got, _ := TwoSided(nodes, 2)
	sameTopMagnitude(t, nodes, got, 2)
	if got[0].ID != 2 {
		t.Errorf("top item = %d, want 2", got[0].ID)
	}
}

func TestTwoSidedSingleNode(t *testing.T) {
	nodes := []Scores{{1: 5, 2: -9, 3: 3}}
	got, _ := TwoSided(nodes, 2)
	sameTopMagnitude(t, nodes, got, 2)
}

func TestTwoSidedFewerItemsThanK(t *testing.T) {
	nodes := []Scores{{1: 5}, {2: -3}}
	got, _ := TwoSided(nodes, 10)
	if len(got) != 2 {
		t.Fatalf("got %d items, want 2", len(got))
	}
	sameTopMagnitude(t, nodes, got, 10)
}

func TestTwoSidedSparseNodes(t *testing.T) {
	// Nodes with fewer than k entries: implicit zeros must not break the
	// τ bounds (the w̃ floor/cap at 0).
	nodes := []Scores{
		{1: 3},
		{2: -4},
		{3: 2, 4: -1},
		{},
	}
	got, _ := TwoSided(nodes, 3)
	sameTopMagnitude(t, nodes, got, 3)
}

func TestTwoSidedCancellation(t *testing.T) {
	// Scores that cancel exactly: aggregate 0 should lose to any non-zero.
	nodes := []Scores{
		{1: 100, 2: 1},
		{1: -100, 2: 1},
	}
	got, _ := TwoSided(nodes, 1)
	if got[0].ID != 2 || got[0].Score != 2 {
		t.Fatalf("got %v, want item 2 (cancelled item 1 must lose)", got)
	}
}

func TestTwoSidedAllNegative(t *testing.T) {
	nodes := []Scores{
		{1: -10, 2: -20, 3: -1},
		{1: -15, 2: -2, 4: -8},
	}
	got, _ := TwoSided(nodes, 2)
	sameTopMagnitude(t, nodes, got, 2)
}

// The central property test: TwoSided is exact on adversarial sign
// patterns across random node counts and k.
func TestTwoSidedMatchesBruteForceQuick(t *testing.T) {
	f := func(raw []int16, mSel, kSel uint8) bool {
		m := int(mSel%6) + 1
		k := int(kSel%8) + 1
		nodes := make([]Scores, m)
		for j := range nodes {
			nodes[j] = Scores{}
		}
		for i, rv := range raw {
			id := int64(uint16(rv) % 48)
			nodes[i%m][id] += float64(rv) / 16
		}
		// Drop exact zeros (absent = zero anyway).
		for _, n := range nodes {
			for id, v := range n {
				if v == 0 {
					delete(n, id)
				}
			}
		}
		got, _ := TwoSided(nodes, k)
		want := bruteForce(nodes, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(math.Abs(got[i].Score)-math.Abs(want[i].Score)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Fatal(err)
	}
}

// Zipf-like workload: heavy skew, many nodes — also verifies the pruning
// actually prunes (communication much less than shipping everything).
func TestTwoSidedPrunes(t *testing.T) {
	r := zipf.NewRNG(3)
	z := zipf.NewZipf(1<<14, 1.2)
	const m = 32
	nodes := make([]Scores, m)
	totalItems := 0
	for j := range nodes {
		nodes[j] = Scores{}
		for i := 0; i < 3000; i++ {
			id := z.Sample(r)
			sign := 1.0
			if id%3 == 0 {
				sign = -1
			}
			nodes[j][id] += sign
		}
		totalItems += len(nodes[j])
	}
	const k = 20
	got, st := TwoSided(nodes, k)
	sameTopMagnitude(t, nodes, got, k)
	if st.TotalItems() >= totalItems {
		t.Errorf("no pruning: protocol sent %d of %d local scores", st.TotalItems(), totalItems)
	}
	if st.CandidateSize == 0 {
		t.Error("empty candidate set")
	}
}

func TestTwoSidedEmpty(t *testing.T) {
	if got, _ := TwoSided(nil, 5); got != nil {
		t.Errorf("nil nodes -> %v", got)
	}
	if got, _ := TwoSided([]Scores{{}, {}}, 3); len(got) != 0 {
		t.Errorf("empty nodes -> %v", got)
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{Round1Items: 1, Round2Items: 2, Round3Items: 3}
	if s.TotalItems() != 6 {
		t.Errorf("TotalItems = %d", s.TotalItems())
	}
}

func BenchmarkTwoSided(b *testing.B) {
	r := zipf.NewRNG(1)
	z := zipf.NewZipf(1<<16, 1.1)
	const m = 64
	nodes := make([]Scores, m)
	for j := range nodes {
		nodes[j] = Scores{}
		for i := 0; i < 5000; i++ {
			id := z.Sample(r)
			v := float64(1)
			if id%2 == 0 {
				v = -1
			}
			nodes[j][id] += v
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TwoSided(nodes, 30)
	}
}
