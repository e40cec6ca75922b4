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

// requireBatchEq runs queries through the public Batch dispatch and
// demands bit-identical results — estimates AND error strings — against
// an oracle: the O(k) linear scan for a 1D entry (every 1D batch runs
// through estimate, so comparing it with the scalar loop would compare
// the executor with itself), the scalar walks for a 2D entry.
func requireBatchEq(t *testing.T, e *Entry, queries []BatchQuery) {
	t.Helper()
	want := make([]BatchResult, len(queries))
	if e.Is2D() {
		e.batchScalar(queries, want)
	} else {
		scanResults(e, queries, want)
	}
	got := make([]BatchResult, len(queries))
	e.Batch(queries, got)
	for i := range queries {
		if got[i] != want[i] {
			t.Fatalf("query %d (%+v): Batch %+v, oracle %+v", i, queries[i], got[i], want[i])
		}
	}
}

// scanResults answers a 1D entry's queries off the linear scan of its
// coefficients, taking an invalid query's error from estimate.
func scanResults(e *Entry, queries []BatchQuery, out []BatchResult) {
	cs := e.H.Coefficients()
	coefs := make([]wavelet.Coef, len(cs))
	for i, c := range cs {
		coefs[i] = wavelet.Coef{Index: c.Index, Value: c.Value}
	}
	scan := &wavelet.Representation{U: e.H.Domain(), Coefs: coefs}
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
		queries := make([]BatchQuery, vecBatchMin+4)
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
		queries := make([]BatchQuery, vecBatchMin)
		for i := range queries {
			queries[i] = BatchQuery{Op: "nope", Key: int64(i)}
		}
		requireBatchEq(t, e, queries)
	})
}

// TestBatchVectorizedMatchesScalar2D is the 2D analogue: cell batches
// with shared-x runs, duplicates and off-grid cells, rectangle ranges
// (including inverted and off-grid bounds, which clamp rather than
// error), and batches of vecBatchMin queries or more holding fewer than
// vecBatchMin cells, whose cells stay on the scalar walks.
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
		queries := make([]BatchQuery, 2*vecBatchMin)
		for i := range queries {
			queries[i] = mk([]int{1, 3, 4, 1, 0, 3}[i%6], i)
		}
		requireBatchEq(t, e, queries)
	})
}

// TestConcurrentVectorBatchUnderUpdateLoad is the batch-path race smoke
// CI runs with -race: querier goroutines drive large batches straight
// through Entry.Batch and the registry's snapshot reads — 1D batches on
// the shared piece tables, 2D cells on the pooled shared-walk scratch —
// while a writer republishes the 1D histogram, so the detector sees the
// pooled scratch and snapshot swaps interleaving.
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

// BenchmarkBatch2DDispatch times a 2D batch of n random cells, of n
// random rectangles, and of half of each, on the 64×64 grid the tests
// use, through both executors: scalar (one walk per query) and shared
// (rectangles answered in place, the cells gathered into one sorted
// sweep when there are vecBatchMin of them, scattered back).
// vecBatchMin is where shared overtakes scalar on cells; ns/query
// compares sizes.
func BenchmarkBatch2DDispatch(b *testing.B) {
	h := buildHist2D(b, 64, 128, 29)
	e, err := NewRegistry().Publish2D("grid", h)
	if err != nil {
		b.Fatal(err)
	}
	s := h.Side()
	rng := rand.New(rand.NewSource(29))
	mk := map[string]func() BatchQuery{
		"points": func() BatchQuery { return BatchQuery{Op: "point", X: rng.Int63n(s), Y: rng.Int63n(s)} },
		"ranges": func() BatchQuery {
			x, y := rng.Int63n(s), rng.Int63n(s)
			return BatchQuery{Op: "range", XLo: x, XHi: x + rng.Int63n(s-x), YLo: y, YHi: y + rng.Int63n(s-y)}
		},
	}
	for _, mix := range []string{"points", "ranges", "mixed"} {
		for _, n := range []int{8, 16, 32, 64, 256} {
			queries := make([]BatchQuery, n)
			for i := range queries {
				class := mix
				if mix == "mixed" {
					class = [2]string{"points", "ranges"}[i%2]
				}
				queries[i] = mk[class]()
			}
			results := make([]BatchResult, n)
			for _, ex := range []struct {
				name string
				run  func([]BatchQuery, []BatchResult)
			}{{"scalar", e.batchScalar}, {"shared", e.batchVectorized}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", mix, n, ex.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						ex.run(queries, results)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/query")
				})
			}
		}
	}
}
