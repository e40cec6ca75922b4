package ha

import (
	"context"
	"net/http"
	"net/url"
	"sync"
	"time"

	"wavelethist/dist"
	"wavelethist/serve"
)

// Router-side query coalescing: single-query GETs (point, range) that
// arrive for the same histogram within a short window are merged into
// one batch — a single-group query frame on the router's batch hop
// (crossbatch.go), so the shard answers them in one request instead of
// one request each — and the estimates are scattered back to the waiting
// requests in arrival order. A GET is parsed by serve.ParseQuery, the
// shard's own parser, and the response is rendered by
// serve.AppendEstimate, as the shard renders it, so responses are
// byte-identical to the shard's own single-query endpoints and clients
// cannot tell whether their GET was coalesced.
//
// Trade-off: a query waits at most CoalesceWait before its batch
// dispatches (a full batch of CoalesceMax dispatches immediately), so
// p50 latency rises by up to the window in exchange for shard-side
// throughput. One deliberate divergence: a query using the wrong
// dimensional form for its histogram (e.g. ?key= against a 2D entry)
// gets the batch API's semantics — fields interpreted per the entry's
// dimension, missing ones defaulting to 0 — instead of the direct
// endpoint's 400, because the router does not know entry
// dimensionality. Queries whose parameters don't parse as a single
// unambiguous form fall through to the direct proxy path untouched.

// coalescer accumulates pending single queries per histogram name.
type coalescer struct {
	rt   *Router
	wait time.Duration
	max  int

	mu      sync.Mutex
	pending map[string]*pendingBatch
}

// pendingBatch is one open window's worth of queries for one histogram.
type pendingBatch struct {
	queries []serve.BatchQuery
	waiters []chan coalesceResult
	timer   *time.Timer
}

// coalesceResult is what dispatch hands each waiter: exactly one of the
// four outcomes is meaningful.
type coalesceResult struct {
	est     float64 // estimate, when status == 0 and raw == nil and netErr == nil
	version uint64
	// status and errMsg are the shard's verdict on the query (400) or on
	// its whole group (404 unknown name, …), rendered as the same
	// {"error":…} body the shard's own endpoints send.
	status  int
	errMsg  string
	raw     *upstream // shard answered something other than a result frame; passed through verbatim
	netErr  error     // shard unreachable (primary and all replicas)
	shardID string
}

func newCoalescer(rt *Router, wait time.Duration, max int) *coalescer {
	return &coalescer{rt: rt, wait: wait, max: max, pending: map[string]*pendingBatch{}}
}

// enqueue parks one query under its histogram name. The first query of
// a window arms the dispatch timer; the CoalesceMax-th dispatches the
// batch inline (the timer's flush finds the window already gone and
// does nothing).
func (c *coalescer) enqueue(name string, q serve.BatchQuery) chan coalesceResult {
	ch := make(chan coalesceResult, 1)
	c.mu.Lock()
	b := c.pending[name]
	if b == nil {
		b = &pendingBatch{}
		b.timer = time.AfterFunc(c.wait, func() { c.flush(name, b) })
		c.pending[name] = b
	}
	b.queries = append(b.queries, q)
	b.waiters = append(b.waiters, ch)
	full := len(b.queries) >= c.max
	if full {
		delete(c.pending, name)
		b.timer.Stop()
	}
	c.rt.coalesceDepth.Add(1)
	c.mu.Unlock()
	if full {
		c.dispatch(name, b)
	}
	return ch
}

// flush is the timer path: dispatch the window unless a size-triggered
// dispatch already claimed it (identity check — a new window for the
// same name must not be stolen by a stale timer).
func (c *coalescer) flush(name string, b *pendingBatch) {
	c.mu.Lock()
	if c.pending[name] != b {
		c.mu.Unlock()
		return
	}
	delete(c.pending, name)
	c.mu.Unlock()
	c.dispatch(name, b)
}

// dispatch sends the merged batch to the owning shard (with replica
// failover) and scatters per-query outcomes back to the waiters in
// arrival order. The upstream call uses the router's client timeout,
// not any single waiter's context: one canceled client must not fail
// the queries it was batched with.
func (c *coalescer) dispatch(name string, b *pendingBatch) {
	n := len(b.queries)
	c.rt.coalesceDepth.Add(int64(-n))
	c.rt.coalesced.Add(int64(n))
	c.rt.coalesceSize.ObserveNanos(int64(n))

	sh := c.rt.Shard(name)
	var hb hopBuffers
	resp, err := c.rt.batchHop(context.Background(), sh, &hb,
		[]dist.QueryGroup{{Name: name, Coalesced: n, Queries: b.queries}})
	if err != nil {
		for _, ch := range b.waiters {
			ch <- coalesceResult{netErr: err, shardID: sh.ID}
		}
		return
	}
	if len(hb.groups) == 0 {
		for _, ch := range b.waiters {
			ch <- coalesceResult{raw: resp, shardID: sh.ID}
		}
		return
	}
	g := &hb.groups[0]
	if g.Status != http.StatusOK {
		// The shard's verdict on the group (404 for an unknown name, …)
		// is every waiter's answer.
		for _, ch := range b.waiters {
			ch <- coalesceResult{status: g.Status, errMsg: g.Error, shardID: sh.ID}
		}
		return
	}
	for i, ch := range b.waiters {
		r := g.Results[i]
		if r.Error != "" {
			ch <- coalesceResult{status: http.StatusBadRequest, errMsg: r.Error, shardID: sh.ID}
		} else {
			ch <- coalesceResult{est: r.Estimate, version: g.Version, shardID: sh.ID}
		}
	}
}

// maybeCoalesce wraps a single-query GET route with the coalescing
// intercept. With coalescing off (or parameters that don't form one
// unambiguous query) the request takes the direct proxy path.
func (rt *Router) maybeCoalesce(route string, fallback http.HandlerFunc) http.HandlerFunc {
	if rt.coal == nil {
		return fallback
	}
	return func(w http.ResponseWriter, r *http.Request) {
		g, ok := coalesceQuery(route, r.URL.Query())
		if !ok {
			fallback(w, r)
			return
		}
		name := r.PathValue("name")
		ch := rt.coal.enqueue(name, g.Query)
		select {
		case res := <-ch:
			switch {
			case res.netErr != nil:
				writeErr(w, http.StatusBadGateway, "shard %q unreachable: %v", res.shardID, res.netErr)
			case res.raw != nil:
				writeUpstream(w, res.raw)
			case res.status != 0:
				writeErr(w, res.status, "%s", res.errMsg)
			default:
				b := serve.AppendEstimate(nil, name, res.version, res.est, g.Fields()...)
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				w.Write(b)
			}
		case <-r.Context().Done():
			// Client gone; its slot in the batch still dispatches (the
			// buffered channel absorbs the unclaimed result).
		}
	}
}

// coalesceQuery parses a single-query GET with serve.ParseQuery, taking
// the one form whose parameters all parse while no parameter of the
// other form is present. ok is false otherwise: those requests fall
// through to the direct proxy, so their error responses stay
// byte-identical with an uncoalesced router.
func coalesceQuery(route string, vals url.Values) (serve.GetQuery, bool) {
	one, err1 := serve.ParseQuery(route, false, vals)
	two, err2 := serve.ParseQuery(route, true, vals)
	switch {
	case err1 == nil && !anyParam(vals, two.Fields()):
		return one, true
	case err2 == nil && !anyParam(vals, one.Fields()):
		return two, true
	}
	return serve.GetQuery{}, false
}

// anyParam reports whether vals holds any of the fields' parameters.
func anyParam(vals url.Values, fields []serve.EstimateField) bool {
	for _, f := range fields {
		if vals.Has(f.Name) {
			return true
		}
	}
	return false
}
