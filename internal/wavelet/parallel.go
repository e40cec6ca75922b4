package wavelet

import (
	"runtime"
	"sync"
)

// BatchPointsParallel is measured-only: no serving code reaches it, so
// Entry.Batch answers every 1D batch serially. Since a point reads its
// piece's stored estimate, the fan-out costs more than the lookups: on a
// 2-core VM it ran 9.6 ns per query at n=4096 against 4.5 ns for the
// serial BatchPoints (wavelet.batch_points_par_ns_per_q.n4096 vs
// batch_points_ns_per_q.n4096, one traced embed_batch run). The method
// stays because benchmark/layers_serve.go calls it for that row; the row
// and the method go together.
//
// Each piece-table lookup is independent of every other, so the fan-out
// is contiguous slices of xs, one per worker, each answered by
// BatchPoints into the matching slice of out: bit-identity is inherited,
// and workers write disjoint out[i] slots, so the fan-out is race-free by
// construction.

// parMinPerWorker is the minimum slice worth a goroutine; below it the
// goroutine start outweighs the lookups.
const parMinPerWorker = 64

// resolveWorkers maps a caller's worker request onto a batch of n
// queries: explicit requests are honored (capped at n), and workers <= 0
// asks for the automatic policy — GOMAXPROCS workers, reduced so every
// worker gets at least parMinPerWorker queries.
func resolveWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if max := (n + parMinPerWorker - 1) / parMinPerWorker; workers > max {
			workers = max
		}
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// BatchPointsParallel is BatchPoints fanned across a bounded worker
// pool, one contiguous slice of xs per worker. out is bit-identical to
// BatchPoints (and so to n scalar PointEstimate calls) for every worker
// count. workers <= 0 selects GOMAXPROCS capped so each worker keeps a
// useful slice; workers == 1 runs the serial path.
func (r *Representation) BatchPointsParallel(xs []int64, out []float64, workers int) {
	if len(out) != len(xs) {
		panic("wavelet: BatchPointsParallel slice length mismatch")
	}
	n := len(xs)
	workers = resolveWorkers(workers, n)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		a, b := n*w/workers, n*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.BatchPoints(xs[a:b], out[a:b])
		}()
	}
	r.BatchPoints(xs[:n/workers], out[:n/workers])
	wg.Wait()
}
