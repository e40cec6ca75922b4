package serve

import "sync"

// The vectorized batch dispatch: above vecBatchMin queries, Entry.Batch
// stops answering sub-queries one scalar walk at a time and instead
// gathers each op class into key arrays, hands them to the wavelet
// layer's shared-walk executors (Histogram.BatchPoints / BatchRanges /
// Histogram2D.BatchPoints / BatchRanges), and scatters the answers back
// in request order. Results are bit-identical to the scalar loop — the
// executors guarantee bitwise equality with PointEstimate / RangeCount,
// a query no executor may run takes its error from estimate (the scalar
// loop's own per-query code), and every answer passes the same finite
// check. Scratch lives in a pool so the steady state stays
// allocation-free on the handler's reused slices.

// vecBatchMin is the dispatch threshold: below it, per-query sort and
// sweep setup costs more than the scalar walks it saves. Chosen by the
// benchmark's rows, not a knob: at n=16 the shared walk costs 414 ns per
// query (wavelet.batch_points_ns_per_q.n16) against 540 ns for a scalar
// walk (wavelet.point_ns), and the gap only widens above.
const vecBatchMin = 16

type vecScratch struct {
	keys  []int64 // 1D point keys
	kidx  []int32 // their positions in the request
	rlo   []int64 // 1D range bounds
	rhi   []int64
	ridx  []int32
	x2    []int64 // 2D cell coordinates
	y2    []int64
	gidx  []int32
	rx2lo []int64 // 2D rectangle bounds
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

// batchVectorized is Batch's body for large batches. Phase 1 validates
// every query — a rejected one is answered by estimate, so error strings
// match bit for bit — and gathers the valid ones per op class; phase 2
// runs one shared-walk executor per class and scatters results.
func (e *Entry) batchVectorized(queries []BatchQuery, results []BatchResult) {
	sc := vecScratchPool.Get().(*vecScratch)
	keys, kidx := sc.keys[:0], sc.kidx[:0]
	rlo, rhi, ridx := sc.rlo[:0], sc.rhi[:0], sc.ridx[:0]
	x2, y2, gidx := sc.x2[:0], sc.y2[:0], sc.gidx[:0]
	rx2lo, rx2hi := sc.rx2lo[:0], sc.rx2hi[:0]
	ry2lo, ry2hi, r2idx := sc.ry2lo[:0], sc.ry2hi[:0], sc.r2idx[:0]
	is2D := e.Is2D()
	for i := range queries {
		q := &queries[i]
		switch q.Op {
		case "point":
			if is2D {
				s := e.H2D.Side()
				if q.X < 0 || q.X >= s || q.Y < 0 || q.Y >= s {
					results[i] = result(e.estimate(q))
					continue
				}
				x2 = append(x2, q.X)
				y2 = append(y2, q.Y)
				gidx = append(gidx, int32(i))
			} else {
				if q.Key < 0 || q.Key >= e.H.Domain() {
					results[i] = result(e.estimate(q))
					continue
				}
				keys = append(keys, q.Key)
				kidx = append(kidx, int32(i))
			}
		case "range":
			// Ranges are never rejected (the clamp contract); all go to
			// the executor of the entry's dimensionality.
			if is2D {
				rx2lo = append(rx2lo, q.XLo)
				rx2hi = append(rx2hi, q.XHi)
				ry2lo = append(ry2lo, q.YLo)
				ry2hi = append(ry2hi, q.YHi)
				r2idx = append(r2idx, int32(i))
			} else {
				rlo = append(rlo, q.Lo)
				rhi = append(rhi, q.Hi)
				ridx = append(ridx, int32(i))
			}
		default:
			results[i] = result(e.estimate(q))
		}
	}
	if len(keys) > 0 {
		out := sc.ensureOut(len(keys))
		e.H.BatchPoints(keys, out)
		for m, i := range kidx {
			results[i] = result(finite(out[m]))
		}
	}
	if len(rlo) > 0 {
		out := sc.ensureOut(len(rlo))
		e.H.BatchRanges(rlo, rhi, out)
		for m, i := range ridx {
			results[i] = result(finite(out[m]))
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
	sc.keys, sc.kidx = keys, kidx
	sc.rlo, sc.rhi, sc.ridx = rlo, rhi, ridx
	sc.x2, sc.y2, sc.gidx = x2, y2, gidx
	sc.rx2lo, sc.rx2hi = rx2lo, rx2hi
	sc.ry2lo, sc.ry2hi, sc.r2idx = ry2lo, ry2hi, r2idx
	vecScratchPool.Put(sc)
}
