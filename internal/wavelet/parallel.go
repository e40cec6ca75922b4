package wavelet

import (
	"runtime"
	"sync"
)

// BatchPointsParallel is measured-only: no serving code reaches it. On
// two cores the fan-out ran 1.04× the serial shared walk at n=4096 and
// 0.75× at n=1024, so Entry.Batch always runs the serial BatchPoints.
// The method stays because benchmark/layers_serve.go calls it for the
// wavelet.batch_points_par_ns_per_q.n4096 row; the row and the method go
// together.
//
// The sweep in batch.go is embarrassingly parallel across contiguous
// segments of the sorted query order: a level's forward cursor depends
// only on the monotone targets it has already passed, so a sweep
// restricted to queries [a, b) of the sorted batch — with its cursor
// binary-searched to query a's target — matches exactly the runs the
// full sweep matches for those queries. Every worker runs the same sweep
// code over the sub-slice it would occupy in the serial order, pushes
// into a private arena and finishes its own queries with the same
// position-ordered sumByPos, so bit-identity is inherited; workers write
// disjoint out[i] slots, so the fan-out is race-free by construction.

// parMinPerWorker is the minimum sorted-segment size worth a goroutine;
// below it the fan-out overhead (scratch reset is O(n) per worker)
// outweighs the sweep work.
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

// fanOut runs sweep over per-worker contiguous segments of the sorted
// active-query list and blocks until all segments finish.
func fanOut(workers int, qord []int32, sweep func(seg []int32)) {
	nq := len(qord)
	if workers > nq {
		workers = nq
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		seg := qord[nq*w/workers : nq*(w+1)/workers]
		if len(seg) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(seg)
		}()
	}
	wg.Wait()
}

// BatchPointsParallel is BatchPoints fanned across a bounded worker
// pool: the batch is sorted once, split into per-worker contiguous key
// segments, and each segment swept independently. out is bit-identical
// to BatchPoints (and so to n scalar PointEstimate calls) for every
// worker count. workers <= 0 selects GOMAXPROCS capped so each worker
// keeps a useful segment; workers == 1 (or a tree-less representation)
// runs the serial path.
func (r *Representation) BatchPointsParallel(xs []int64, out []float64, workers int) {
	if len(out) != len(xs) {
		panic("wavelet: BatchPointsParallel slice length mismatch")
	}
	workers = resolveWorkers(workers, len(xs))
	if r.tree == nil || workers <= 1 {
		r.BatchPoints(xs, out)
		return
	}
	r.tree.batchPointsParallel(r.Coefs, xs, out, workers)
}

func (t *errTree) batchPointsParallel(coefs []Coef, xs []int64, out []float64, workers int) {
	n := len(xs)
	psc := batchScratchPool.Get().(*batchScratch)
	qord := t.sortPointQueries(psc, xs, out)
	fanOut(workers, qord, func(seg []int32) {
		sc := batchScratchPool.Get().(*batchScratch)
		sc.resetArena(n)
		t.sweepPoints(sc, coefs, xs, seg)
		sc.finishFlat(seg, out)
		batchScratchPool.Put(sc)
	})
	batchScratchPool.Put(psc)
}
