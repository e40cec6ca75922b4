package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"wavelethist"
	"wavelethist/internal/wavelet"
)

func buildHist2D(t testing.TB, side int64, k int, seed uint64) *wavelethist.Histogram2D {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	n := 4000
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63n(side)
		ys[i] = rng.Int63n(side)
	}
	ds, err := wavelethist.NewDataset2DFromPairs(xs, ys, side, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wavelethist.Build2D(ds, wavelethist.SendV2D, wavelethist.Options{K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Histogram
}

// requireBatchEq runs queries through the public Batch and demands
// bit-identical results — estimates AND error strings — against the O(k)
// linear scan of the entry's coefficients (every batch runs through
// estimate, so comparing it with a loop of estimate would compare the
// executor with itself).
func requireBatchEq(t *testing.T, e *Entry, queries []BatchQuery) {
	t.Helper()
	want := make([]BatchResult, len(queries))
	scanResults(e, queries, want)
	got := make([]BatchResult, len(queries))
	e.Batch(queries, got)
	for i := range queries {
		if got[i] != want[i] {
			t.Fatalf("query %d (%+v): Batch %+v, oracle %+v", i, queries[i], got[i], want[i])
		}
	}
}

// scanResults answers an entry's queries off the linear scan of its
// coefficients — a Representation or Representation2D literal, which has
// no query index — taking an invalid query's error from estimate.
func scanResults(e *Entry, queries []BatchQuery, out []BatchResult) {
	if e.Is2D() {
		scan := &wavelet.Representation2D{U: e.H2D.Side(), Coefs: coefs(e.H2D.Coefficients())}
		for i := range queries {
			q := &queries[i]
			switch {
			case q.Op == "point" && q.X >= 0 && q.X < scan.U && q.Y >= 0 && q.Y < scan.U:
				out[i] = result(finite(scan.ScanPointEstimate(q.X, q.Y)))
			case q.Op == "range":
				out[i] = result(finite(scan.ScanRangeSum(q.XLo, q.XHi, q.YLo, q.YHi)))
			default:
				out[i] = result(e.estimate(q))
			}
		}
		return
	}
	scan := &wavelet.Representation{U: e.H.Domain(), Coefs: coefs(e.H.Coefficients())}
	for i := range queries {
		q := &queries[i]
		switch {
		case q.Op == "point" && q.Key >= 0 && q.Key < scan.U:
			out[i] = result(finite(scan.ScanPointEstimate(q.Key)))
		case q.Op == "range":
			out[i] = result(finite(scan.ScanRangeSum(q.Lo, q.Hi)))
		default:
			out[i] = result(e.estimate(q))
		}
	}
}

// coefs converts a histogram's public coefficients, largest magnitude
// first (the order its representation sums them in), to wavelet.Coefs.
func coefs(cs []wavelethist.Coefficient) []wavelet.Coef {
	out := make([]wavelet.Coef, len(cs))
	for i, c := range cs {
		out[i] = wavelet.Coef{Index: c.Index, Value: c.Value}
	}
	return out
}

// batchSizes are the batch sizes the dispatch-equivalence tests run at: a
// few hundred (what the routed workloads send) and the sizes around 1024
// and at 4096 where a parallel fan-out once took over, so the whole range
// a client can send stays pinned to the oracle. batchMixes cross
// them with query-class mixes — classes 0, 2 and 4 are point queries, 1
// and 3 ranges — so each executor also sees those sizes alone.
var (
	batchSizes = []int{300, 1023, 1024, 1025, 4096}
	batchMixes = []struct {
		name    string
		classes []int
	}{
		{"all", []int{0, 1, 2, 3, 4}},
		{"points", []int{0, 2, 4}},
		{"ranges", []int{1, 3}},
	}
)

// TestBatchVectorizedMatchesScalar pins the serve-layer batch contract on
// a 1D entry: every result of Entry.Batch — estimate or error string —
// is bit-identical to the linear-scan oracle, across mixed op classes,
// duplicates, out-of-domain keys, degenerate ranges, and malformed ops.
func TestBatchVectorizedMatchesScalar(t *testing.T) {
	r := NewRegistry()
	h := buildHist(t, 150000, 1<<13, 192, 11)
	e, err := r.Publish("zipf", h)
	if err != nil {
		t.Fatal(err)
	}
	dom := h.Domain()
	rng := rand.New(rand.NewSource(11))

	t.Run("mixed", func(t *testing.T) {
		mk := func(class, i int) BatchQuery {
			switch class {
			case 0:
				return BatchQuery{Op: "point", Key: rng.Int63n(dom)}
			case 1:
				lo := rng.Int63n(dom)
				return BatchQuery{Op: "range", Lo: lo, Hi: lo + rng.Int63n(2000)}
			case 2: // duplicates and boundary keys
				return BatchQuery{Op: "point", Key: []int64{0, dom - 1, 42, 42}[i%4]}
			case 3: // degenerate / clamped ranges
				return BatchQuery{Op: "range", Lo: int64(10 - i), Hi: int64(3 - i%7)}
			default:
				return BatchQuery{Op: "point", Key: rng.Int63n(3*dom) - dom} // often off-domain
			}
		}
		for _, mix := range batchMixes {
			for _, n := range batchSizes {
				t.Run(fmt.Sprintf("%s/n=%d", mix.name, n), func(t *testing.T) {
					queries := make([]BatchQuery, n)
					for i := range queries {
						queries[i] = mk(mix.classes[i%len(mix.classes)], i)
					}
					requireBatchEq(t, e, queries)
				})
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		queries := make([]BatchQuery, 20)
		for i := range queries {
			queries[i] = BatchQuery{Op: "point", Key: int64(i)}
		}
		queries[1] = BatchQuery{Op: "point", Key: -1}
		queries[3] = BatchQuery{Op: "point", Key: dom}
		queries[5] = BatchQuery{Op: "frobnicate"}
		queries[7] = BatchQuery{Op: ""}
		requireBatchEq(t, e, queries)
	})

	t.Run("all-invalid", func(t *testing.T) {
		queries := make([]BatchQuery, 16)
		for i := range queries {
			queries[i] = BatchQuery{Op: "nope", Key: int64(i)}
		}
		requireBatchEq(t, e, queries)
	})
}

// TestBatchVectorizedMatchesScalar2D is the 2D analogue, against the
// scan of the grid's coefficients: cell batches with shared-x runs,
// duplicates and off-grid cells, rectangle ranges (including inverted
// and off-grid bounds, which clamp rather than error), and one more mix
// that holds few cells among many rectangles.
func TestBatchVectorizedMatchesScalar2D(t *testing.T) {
	r := NewRegistry()
	h := buildHist2D(t, 64, 128, 13)
	e, err := r.Publish2D("grid", h)
	if err != nil {
		t.Fatal(err)
	}
	s := h.Side()
	rng := rand.New(rand.NewSource(13))
	mk := func(class, i int) BatchQuery {
		switch class {
		case 0:
			return BatchQuery{Op: "point", X: rng.Int63n(s), Y: rng.Int63n(s)}
		case 1: // rectangles, incl. inverted / clamped bounds
			return BatchQuery{
				Op:  "range",
				XLo: rng.Int63n(2*s) - s/2, XHi: rng.Int63n(2*s) - s/2,
				YLo: int64(5 - i%9), YHi: rng.Int63n(s),
			}
		case 2: // shared-x runs and exact duplicates
			return BatchQuery{Op: "point", X: 7, Y: int64(i % 5)}
		case 3: // narrow rectangles, many of them identical
			x, y := int64(i%11), int64(i%3)
			return BatchQuery{Op: "range", XLo: x, XHi: x + 2, YLo: y, YHi: y + 1}
		default: // off-grid
			return BatchQuery{Op: "point", X: rng.Int63n(2*s) - s/2, Y: rng.Int63n(2*s) - s/2}
		}
	}
	for _, mix := range batchMixes {
		for _, n := range batchSizes {
			t.Run(fmt.Sprintf("%s/n=%d", mix.name, n), func(t *testing.T) {
				queries := make([]BatchQuery, n)
				for i := range queries {
					queries[i] = mk(mix.classes[i%len(mix.classes)], i)
				}
				requireBatchEq(t, e, queries)
			})
		}
	}
	t.Run("few-cells", func(t *testing.T) {
		queries := make([]BatchQuery, 32)
		for i := range queries {
			queries[i] = mk([]int{1, 3, 4, 1, 0, 3}[i%6], i)
		}
		requireBatchEq(t, e, queries)
	})
}

// TestConcurrentVectorBatchUnderUpdateLoad is the batch-path race smoke
// CI runs with -race: querier goroutines drive large batches straight
// through Entry.Batch and the registry's snapshot reads — 1D batches on
// the shared piece tables, 2D batches on one grid's error tree — while a
// writer republishes the 1D histogram, so the detector sees concurrent
// readers of the shared indexes and snapshot swaps interleaving.
func TestConcurrentVectorBatchUnderUpdateLoad(t *testing.T) {
	r := NewRegistry()
	base := buildHist(t, 100000, 1<<12, 128, 17)
	if _, err := r.Publish("hot", base); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish2D("grid", buildHist2D(t, 64, 128, 17)); err != nil {
		t.Fatal(err)
	}
	grid := make([]BatchQuery, 128)
	for i := range grid {
		if i%3 == 0 {
			grid[i] = BatchQuery{Op: "range", XLo: int64(i % 64), XHi: 63, YLo: 0, YHi: int64(i % 64)}
		} else {
			grid[i] = BatchQuery{Op: "point", X: int64(i % 64), Y: int64(i * 7 % 64)}
		}
	}

	queriers := runtime.GOMAXPROCS(0)
	if queriers < 4 {
		queriers = 4
	}
	const republishes = 60
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := make([]BatchQuery, 128)
			for i := range queries {
				if i%3 == 0 {
					queries[i] = BatchQuery{Op: "range", Lo: int64(i * 7), Hi: int64(i*7 + 900)}
				} else {
					queries[i] = BatchQuery{Op: "point", Key: int64((g*131 + i*17) % (1 << 12))}
				}
			}
			results := make([]BatchResult, len(queries))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, name := range []string{"hot", "grid"} {
					e, ok := r.Lookup(name)
					if !ok {
						t.Errorf("entry %q vanished mid-run", name)
						return
					}
					qs := queries
					if name == "grid" {
						qs = grid
					}
					e.Batch(qs, results)
					for i := range results {
						if results[i].Error != "" {
							t.Errorf("%s query %d errored: %s", name, i, results[i].Error)
							return
						}
					}
				}
			}
		}(g)
	}
	for i := 0; i < republishes; i++ {
		h := buildHist(t, 50000, 1<<12, 128, uint64(100+i))
		if _, err := r.Publish("hot", h); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if v := r.Version(); v != republishes+2 {
		t.Fatalf("registry version = %d, want %d", v, republishes+2)
	}
}

// TestRegistryReadYourWrites pins the registry's single-pointer contract:
// a writer reads its own publish or drop immediately afterwards through
// every read surface, and the version advances by exactly one per write.
func TestRegistryReadYourWrites(t *testing.T) {
	r := NewRegistry()
	h := buildHist(t, 20000, 1<<10, 16, 19)
	for v := 1; v <= 5; v++ {
		if _, err := r.Publish("a", h); err != nil {
			t.Fatal(err)
		}
		if got := r.Snapshot().Version(); got != uint64(v) {
			t.Fatalf("Snapshot after publish %d reads version %d", v, got)
		}
		if got := r.Version(); got != uint64(v) {
			t.Fatalf("Version after publish %d = %d", v, got)
		}
		if e, ok := r.Lookup("a"); !ok || e.Version != uint64(v) {
			t.Fatalf("Lookup after publish %d = %+v, %v", v, e, ok)
		}
	}
	if !r.Drop("a") {
		t.Fatal("drop failed")
	}
	if _, ok := r.Lookup("a"); ok {
		t.Fatal("Lookup sees dropped entry")
	}
	if got := r.Version(); got != 6 {
		t.Fatalf("Version after drop = %d, want 6", got)
	}
}
