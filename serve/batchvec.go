package serve

import "sync"

// The 2D vectorized batch dispatch: at vecBatchMin queries or more,
// Entry.Batch on a 2D entry stops answering sub-queries one scalar walk
// at a time and instead gathers each op class into coordinate arrays,
// hands them to the wavelet layer's shared-walk executors
// (Histogram2D.BatchPoints / BatchRanges), and scatters the answers back
// in request order. Results are bit-identical to the scalar loop — the
// executors guarantee bitwise equality with PointEstimate / RangeCount,
// a query no executor may run takes its error from estimate (the scalar
// loop's own per-query code), and every answer passes the same finite
// check. Scratch lives in a pool so the steady state stays
// allocation-free on the handler's reused slices. 1D entries answer
// every batch through estimate: a piece-table lookup leaves no walk to
// share.

// vecBatchMin is the 2D dispatch threshold: below it, per-query sort and
// sweep setup costs more than the scalar walks it saves. A constant, not
// a knob. BenchmarkBatch2DDispatch (64×64 grid, k = 128, 2-core VM) puts
// the crossover for cell batches between 16 and 32 queries: the shared
// walk costs 0.93–0.97× the scalar walks per query at 16, 0.87× at 32 and
// 0.85× at 64. Rectangle batches never cross: the shared range walk costs
// 1.3–1.5× the scalar walks at every n measured, 8 to 1024.
const vecBatchMin = 16

type vecScratch struct {
	x2    []int64 // cell coordinates
	y2    []int64
	gidx  []int32 // their positions in the request
	rx2lo []int64 // rectangle bounds
	rx2hi []int64
	ry2lo []int64
	ry2hi []int64
	r2idx []int32
	out   []float64
}

var vecScratchPool = sync.Pool{New: func() any { return new(vecScratch) }}

func (sc *vecScratch) ensureOut(n int) []float64 {
	if cap(sc.out) < n {
		sc.out = make([]float64, n)
	}
	sc.out = sc.out[:n]
	return sc.out
}

// batchVectorized is a 2D Batch's body for large batches. Phase 1
// validates every query — a rejected one is answered by estimate, so
// error strings match bit for bit — and gathers the valid ones per op
// class; phase 2 runs one shared-walk executor per class and scatters
// results.
func (e *Entry) batchVectorized(queries []BatchQuery, results []BatchResult) {
	sc := vecScratchPool.Get().(*vecScratch)
	x2, y2, gidx := sc.x2[:0], sc.y2[:0], sc.gidx[:0]
	rx2lo, rx2hi := sc.rx2lo[:0], sc.rx2hi[:0]
	ry2lo, ry2hi, r2idx := sc.ry2lo[:0], sc.ry2hi[:0], sc.r2idx[:0]
	s := e.H2D.Side()
	for i := range queries {
		q := &queries[i]
		switch q.Op {
		case "point":
			if q.X < 0 || q.X >= s || q.Y < 0 || q.Y >= s {
				results[i] = result(e.estimate(q))
				continue
			}
			x2 = append(x2, q.X)
			y2 = append(y2, q.Y)
			gidx = append(gidx, int32(i))
		case "range":
			// Ranges are never rejected (the clamp contract).
			rx2lo = append(rx2lo, q.XLo)
			rx2hi = append(rx2hi, q.XHi)
			ry2lo = append(ry2lo, q.YLo)
			ry2hi = append(ry2hi, q.YHi)
			r2idx = append(r2idx, int32(i))
		default:
			results[i] = result(e.estimate(q))
		}
	}
	if len(x2) > 0 {
		out := sc.ensureOut(len(x2))
		e.H2D.BatchPoints(x2, y2, out)
		for m, i := range gidx {
			results[i] = result(finite(out[m]))
		}
	}
	if len(rx2lo) > 0 {
		out := sc.ensureOut(len(rx2lo))
		e.H2D.BatchRanges(rx2lo, rx2hi, ry2lo, ry2hi, out)
		for m, i := range r2idx {
			results[i] = result(finite(out[m]))
		}
	}
	sc.x2, sc.y2, sc.gidx = x2, y2, gidx
	sc.rx2lo, sc.rx2hi = rx2lo, rx2hi
	sc.ry2lo, sc.ry2hi, sc.r2idx = ry2lo, ry2hi, r2idx
	vecScratchPool.Put(sc)
}
