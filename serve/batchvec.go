package serve

import "sync"

// The 2D cell dispatch: a 2D Batch of vecBatchMin queries or more
// gathers its on-grid cells into coordinate arrays and, when there are
// vecBatchMin of them, hands them to the wavelet layer's shared walk
// (Histogram2D.BatchPoints) and scatters the answers back in request
// order. Every other query — a rectangle, an off-grid cell, an unknown
// op, a cell of a batch with too few cells — is answered in place by
// estimate, the scalar loop's own per-query code, so error strings match
// bit for bit. Results are bit-identical to the scalar loop: the shared
// walk guarantees bitwise equality with PointEstimate, and every answer
// passes the same finite check. Scratch lives in a pool so the steady
// state stays allocation-free on the handler's reused slices. 1D entries
// answer every batch through estimate: a piece-table lookup leaves no
// walk to share.

// vecBatchMin is the 2D cell dispatch threshold: below it, the sort and
// sweep setup costs more than the scalar walks it saves. A constant, not
// a knob. BenchmarkBatch2DDispatch (64×64 grid, k = 128, 2-core VM) puts
// the crossover for cell batches between 16 and 32 queries: the shared
// walk costs 0.93–0.97× the scalar walks per query at 16, 0.87× at 32 and
// 0.85× at 64. Rectangles have no shared walk: the one this package used
// to dispatch them to cost 1.3–1.5× the scalar walks at every n measured,
// 8 to 1024.
const vecBatchMin = 16

type vecScratch struct {
	x2   []int64 // on-grid cell coordinates
	y2   []int64
	gidx []int32 // their positions in the request
	out  []float64
}

var vecScratchPool = sync.Pool{New: func() any { return new(vecScratch) }}

// batchVectorized is a 2D Batch's body for large batches: one pass
// answers every query but the on-grid cells through estimate and gathers
// the cells; then the cells take the shared walk if there are
// vecBatchMin of them, estimate otherwise.
func (e *Entry) batchVectorized(queries []BatchQuery, results []BatchResult) {
	sc := vecScratchPool.Get().(*vecScratch)
	x2, y2, gidx := sc.x2[:0], sc.y2[:0], sc.gidx[:0]
	s := e.H2D.Side()
	for i := range queries {
		q := &queries[i]
		if q.Op == "point" && q.X >= 0 && q.X < s && q.Y >= 0 && q.Y < s {
			x2 = append(x2, q.X)
			y2 = append(y2, q.Y)
			gidx = append(gidx, int32(i))
			continue
		}
		results[i] = result(e.estimate(q))
	}
	if len(gidx) >= vecBatchMin {
		if cap(sc.out) < len(gidx) {
			sc.out = make([]float64, len(gidx))
		}
		out := sc.out[:len(gidx)]
		e.H2D.BatchPoints(x2, y2, out)
		for m, i := range gidx {
			results[i] = result(finite(out[m]))
		}
	} else {
		for _, i := range gidx {
			results[i] = result(e.estimate(&queries[i]))
		}
	}
	sc.x2, sc.y2, sc.gidx = x2, y2, gidx
	vecScratchPool.Put(sc)
}
