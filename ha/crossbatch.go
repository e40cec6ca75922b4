package ha

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"wavelethist/dist"
	"wavelethist/serve"
)

// The router's one batch hop. Cross-shard batches (POST /v1/query) and
// the coalescer's merged windows both reach a shard as a single WDF1
// query frame (dist/querycodec.go) POSTed to the shard's /v1/query and
// answered by a single result frame — one call per shard however many
// histogram names the batch touches, on a connection from the router's
// pool, with no JSON on either side of the hop. There is no JSON
// fallback here: router and shards speak frames or the queries fail
// with the shard's HTTP status, so the two are upgraded together.

// hopBuffers holds one hop's decoded reply for reuse. The request frame
// is deliberately not kept: net/http may still be reading a request
// body after a failed round trip returns, so a frame that a failover
// abandoned must not be rewritten under it.
type hopBuffers struct {
	groups  []dist.ResultGroup
	results []serve.BatchResult
}

// batchHop sends the groups to the shard through readShard — so circuit
// breakers, the read deadline and primary→replica failover are those of
// every other read — and decodes the reply into hb. err means no target
// was reachable. Otherwise hb.groups answers the request group for
// group, or is empty when the shard answered anything but a matching
// result frame, and the caller reports the returned response's status.
func (rt *Router) batchHop(ctx context.Context, sh *Shard, hb *hopBuffers, req []dist.QueryGroup) (*upstream, error) {
	hb.groups = hb.groups[:0]
	size := 16
	for i := range req {
		size += len(req[i].Name) + 12 + 16*len(req[i].Queries)
	}
	frame := dist.AppendQueryFrame(make([]byte, 0, size), req)
	resp, err := rt.readShard(ctx, sh, http.MethodPost, "/v1/query", dist.ContentTypeBinary, frame)
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return resp, nil
	}
	hb.groups, hb.results, err = dist.DecodeResultFrame(resp.body, hb.groups, hb.results)
	ok := err == nil && len(hb.groups) == len(req)
	for i := 0; ok && i < len(req); i++ {
		g := &hb.groups[i]
		ok = g.Status != http.StatusOK || len(g.Results) == len(req[i].Queries)
	}
	if !ok {
		hb.groups = hb.groups[:0]
	}
	return resp, nil
}

// NamedQuery is one entry of the cross-shard batch endpoint
// POST /v1/query: a histogram name plus a standard batch query. It is
// the shape clients marshal; the handler scans bodies into a
// dist.QueryBatch and never builds one.
type NamedQuery struct {
	Name string `json:"name"`
	serve.BatchQuery
}

// crossBatch is one POST /v1/query's reusable state, pooled so the
// steady state allocates for the upstream calls only.
type crossBatch struct {
	body    bytes.Buffer
	in      dist.QueryBatch    // the decoded body: queries and their names
	byName  map[string]int     // name → index into groups
	groups  []nameGroup        // first-seen order
	shards  []shardCall        // first-seen order
	flat    []serve.BatchQuery // the queries regrouped by shard, then name
	results []serve.BatchResult
	reply   []byte
}

// nameGroup is the request indexes of one histogram name's queries.
type nameGroup struct {
	name string
	idxs []int32
}

// shardCall is the frame one shard receives and its decoded reply.
type shardCall struct {
	sh     *Shard
	groups []int // indexes into crossBatch.groups, first-seen order
	req    []dist.QueryGroup
	hop    hopBuffers
}

var crossBatchPool = sync.Pool{New: func() any { return &crossBatch{byName: map[string]int{}} }}

// handleCrossBatch decodes a mixed-name batch once, groups its queries
// by owning shard and then by name, sends each shard one query frame
// concurrently (with replica failover), and reassembles per-query
// results in request order — the scatter-gather a dashboard issuing one
// round trip for many histograms needs. A group the shard refuses (an
// unknown name, too many queries) and a shard nobody answers for fail
// their own queries only.
func (rt *Router) handleCrossBatch(w http.ResponseWriter, r *http.Request) {
	cb := crossBatchPool.Get().(*crossBatch)
	defer crossBatchPool.Put(cb)
	cb.body.Reset()
	if _, err := cb.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	scanned, err := cb.in.DecodeJSON(cb.body.Bytes(), true)
	rt.batchDecoded(scanned)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	queries := cb.in.Queries
	if len(queries) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	if !cb.group(rt, cb.in.Names, w) {
		return
	}

	// One frame per shard: its name groups, each a window of cb.flat
	// (grown once up front, so the windows stay put).
	cb.flat = slices.Grow(cb.flat[:0], len(queries))
	for s := range cb.shards {
		sc := &cb.shards[s]
		sc.req = sc.req[:0]
		for _, gi := range sc.groups {
			g := &cb.groups[gi]
			first := len(cb.flat)
			for _, i := range g.idxs {
				cb.flat = append(cb.flat, queries[i])
			}
			sc.req = append(sc.req, dist.QueryGroup{Name: g.name, Queries: cb.flat[first:]})
		}
	}
	if cap(cb.results) < len(queries) {
		cb.results = make([]serve.BatchResult, len(queries))
	}
	cb.results = cb.results[:len(queries)]
	var wg sync.WaitGroup
	for s := 1; s < len(cb.shards); s++ {
		wg.Add(1)
		go func(sc *shardCall) {
			defer wg.Done()
			cb.call(r.Context(), rt, sc)
		}(&cb.shards[s])
	}
	cb.call(r.Context(), rt, &cb.shards[0])
	wg.Wait()

	cb.reply = serve.AppendBatchResults(cb.reply[:0], cb.results)
	w.Header().Set("Content-Type", "application/json")
	w.Write(cb.reply)
}

// group fills cb.groups and cb.shards from the request, in first-seen
// order, reusing last request's backing arrays. It answers 400 itself
// and returns false on a query with no histogram name.
func (cb *crossBatch) group(rt *Router, names []string, w http.ResponseWriter) bool {
	clear(cb.byName)
	cb.groups, cb.shards = cb.groups[:0], cb.shards[:0]
	topo := rt.topo.Load()
	for i, name := range names {
		if name == "" {
			writeErr(w, http.StatusBadRequest, "query %d has no histogram name", i)
			return false
		}
		gi, ok := cb.byName[name]
		if !ok {
			sh := topo.shards[rt.ring.Shard(name)]
			s := 0
			for s < len(cb.shards) && cb.shards[s].sh != sh {
				s++
			}
			if s == len(cb.shards) {
				cb.shards = extend(cb.shards)
				sc := &cb.shards[s]
				sc.sh, sc.groups = sh, sc.groups[:0]
			}
			gi = len(cb.groups)
			cb.groups = extend(cb.groups)
			g := &cb.groups[gi]
			g.name, g.idxs = name, g.idxs[:0]
			cb.shards[s].groups = append(cb.shards[s].groups, gi)
			cb.byName[name] = gi
		}
		cb.groups[gi].idxs = append(cb.groups[gi].idxs, int32(i))
	}
	return true
}

// extend lengthens s by one element, keeping whatever the slot held
// last time (its slices' backing arrays are what the pool is for).
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// call performs one shard's hop and scatters its outcome into
// cb.results. Shards own disjoint request indexes, so calls run
// concurrently without locking.
func (cb *crossBatch) call(ctx context.Context, rt *Router, sc *shardCall) {
	resp, err := rt.batchHop(ctx, sc.sh, &sc.hop, sc.req)
	var shardErr string
	switch {
	case err != nil:
		shardErr = fmt.Sprintf("shard %q unreachable: %v", sc.sh.ID, err)
	case len(sc.hop.groups) == 0:
		shardErr = fmt.Sprintf("shard %q: HTTP %d", sc.sh.ID, resp.status)
	}
	for k, gi := range sc.groups {
		idxs := cb.groups[gi].idxs
		groupErr := shardErr
		if groupErr == "" && sc.hop.groups[k].Status != http.StatusOK {
			if groupErr = sc.hop.groups[k].Error; groupErr == "" {
				groupErr = fmt.Sprintf("shard %q: HTTP %d", sc.sh.ID, sc.hop.groups[k].Status)
			}
		}
		if groupErr != "" {
			for _, i := range idxs {
				cb.results[i] = serve.BatchResult{Error: groupErr}
			}
			continue
		}
		for j, i := range idxs {
			cb.results[i] = sc.hop.groups[k].Results[j]
		}
	}
}
