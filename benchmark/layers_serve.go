package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"wavelethist"
	"wavelethist/ha"
	"wavelethist/internal/wavelet"
	"wavelethist/serve"
)

// Layer attribution of the serving workloads. One fixed request stream —
// the workload's own, from the same seed — is replayed at each boundary of
// the nested call chain (replayChain):
//
//	router  >  loopback HTTP to the shard  >  handler, no socket  >  serve.Entry  >  internal/wavelet
//
// A layer's self time is its boundary time minus the boundary inside it.

// replayN is how many requests are replayed at each microsecond-scale
// boundary (medians over at least 2000 calls); millisecond-scale requests
// get a quarter of that.
const replayN = 2000

// perNs is how many consecutive requests make one sample in the chains of
// single estimates, whose innermost boundaries are sub-microsecond calls.
const perNs = 20

// representation is the library-level view of a served histogram.
func representation(h *wavelethist.Histogram) *wavelet.Representation {
	return wavelet.NewRepresentation(h.Domain(), coefsOf(h))
}

func coefsOf(h *wavelethist.Histogram) []wavelet.Coef {
	cs := h.Coefficients()
	coefs := make([]wavelet.Coef, len(cs))
	for i, c := range cs {
		coefs[i] = wavelet.Coef{Index: c.Index, Value: c.Value}
	}
	return coefs
}

// batchArgs splits a mixed batch into the library executors' arguments.
type batchArgs struct {
	keys, los, his []int64
	out            []float64
}

func newBatchArgs(b []query) *batchArgs {
	a := &batchArgs{out: make([]float64, len(b))}
	for _, q := range b {
		if q.isRange {
			a.los, a.his = append(a.los, q.lo), append(a.his, q.hi)
		} else {
			a.keys = append(a.keys, q.lo)
		}
	}
	return a
}

// run answers the batch with the two shared-walk executors, as
// serve.Entry.Batch does after gathering each class.
func (a *batchArgs) run(rep *wavelet.Representation) {
	rep.BatchPoints(a.keys, a.out[:len(a.keys)])
	rep.BatchRanges(a.los, a.his, a.out[len(a.keys):])
}

// layersLibrary times the error-tree walks and the batch executors at the
// sizes the serving layers reach them with.
func layersLibrary(rc *runCtx, rec *recorder, lv *layerValues, rep *wavelet.Representation) {
	r := fork(rc.seed, purposeQueries)
	keys := make([]int64, 4096)
	his := make([]int64, len(keys))
	for i := range keys {
		keys[i] = r.intn(rc.sz.Domain)
		his[i] = keys[i] + rc.sz.RangeWidth - 1
	}
	out := make([]float64, len(keys))
	lv.set("wavelet.point_ns", chunkNs(rec, "wavelet.PointEstimate", 64, 64, func(i int) { rep.PointEstimate(keys[i]) }))
	lv.set("wavelet.range_ns", chunkNs(rec, "wavelet.RangeSum", 64, 64, func(i int) { rep.RangeSum(keys[i], his[i]) }))
	for _, n := range []int{16, 256, 4096} {
		calls := replayN
		if n == 4096 {
			calls = replayN / 10
		}
		ns := sampleNs(rec, fmt.Sprintf("wavelet.BatchPoints.n%d", n), calls, func(i int) {
			at := (i * n) % (len(keys) - n + 1)
			rep.BatchPoints(keys[at:at+n], out[:n])
		})
		lv.set(fmt.Sprintf("wavelet.batch_points_ns_per_q.n%d", n), ns/float64(n))
	}
	ns := sampleNs(rec, "wavelet.BatchRanges.n256", replayN, func(i int) {
		at := (i * 256) % (len(keys) - 255)
		rep.BatchRanges(keys[at:at+256], his[at:at+256], out[:256])
	})
	lv.set("wavelet.batch_ranges_ns_per_q.n256", ns/256)
	ns = sampleNs(rec, "wavelet.BatchPointsParallel.n4096", replayN/10, func(int) {
		rep.BatchPointsParallel(keys, out, clients)
	})
	lv.set("wavelet.batch_points_par_ns_per_q.n4096", ns/4096)
}

// layersEmbed is embed_batch's chain: library executors inside
// Entry.Batch inside the caller's lookup-and-answer operation.
func layersEmbed(rc *runCtx, r *rig, rec *recorder, lv *layerValues) error {
	rep := representation(r.served.h)
	layersLibrary(rc, rec, lv, rep)

	lv.set("serve.registry.lookup_ns", chunkNs(rec, "serve.Registry.Lookup", 64, 256, func(int) { r.reg.Lookup(embedName) }))
	e, _ := r.reg.Lookup(embedName)
	rng := fork(rc.seed, purposeQueries)
	points := genQueries(rng, replayN, rc.sz, "point", r.served.h)
	ranges := genQueries(rng, replayN, rc.sz, "range", r.served.h)
	lv.set("serve.entry.point_ns", chunkNs(rec, "serve.Entry.Point", replayN/perNs, perNs, func(i int) { e.Point(points[i].lo) }))
	lv.set("serve.entry.range_ns", chunkNs(rec, "serve.Entry.Range", replayN/perNs, perNs, func(i int) { e.Range(ranges[i].lo, ranges[i].hi) }))

	entry, lib := entryBatchChain(e, rep, genBatches(rc, r.served.h))
	ns := replayChain(rec, replayN, []boundary{entry, lib})
	lv.set("serve.entry.batch_us.n256", ns[0]/1e3)
	lv.chains = append(lv.chains, chain{title: "one 256-query batch", rows: []chainRow{
		{"internal/wavelet (BatchPoints + BatchRanges)", ns[1] / 1e3},
		{"serve (Entry.Batch)", ns[0] / 1e3},
	}})
	return nil
}

// entryBatchChain is the two innermost boundaries of a batch chain: the
// workload's batches through Entry.Batch, and through the library
// executors it dispatches to.
func entryBatchChain(e *serve.Entry, rep *wavelet.Representation, batches [][]query) (entry, lib boundary) {
	in := make([][]serve.BatchQuery, len(batches))
	args := make([]*batchArgs, len(batches))
	for i, b := range batches {
		in[i], args[i] = batchQueries(b), newBatchArgs(b)
	}
	results := make([]serve.BatchResult, len(batches[0]))
	entry = boundary{"serve.Entry.Batch", 1, func(k int) { e.Batch(in[k%len(in)], results) }}
	lib = boundary{"wavelet.BatchPoints+BatchRanges", 1, func(k int) { args[k%len(args)].run(rep) }}
	return entry, lib
}

// stubNode serves a canned reply of the given size, after reading the
// request: what is left is the load generator, a socket and net/http.
func stubNode(size int) (*httpNode, error) {
	reply := make([]byte, size)
	for i := range reply {
		reply[i] = 'x'
	}
	return serveTCP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // a canned-reply stub has no error path worth reporting
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(reply)
	}))
}

// allocs counts heap allocations per call of fn, process-wide: for an
// HTTP round trip that is client, server and everything between, which
// all run in this process.
func allocs(fn func()) float64 { return testing.AllocsPerRun(200, fn) }

// layersRouted is routed_get's chain for one single-estimate GET, from
// the router down to the library.
func layersRouted(rc *runCtx, r *rig, rec *recorder, lv *layerValues) error {
	c := r.cluster
	lane := newHTTPLane(r.tr)
	rep := representation(r.served.h)
	stub, err := stubNode(96)
	if err != nil {
		return err
	}
	defer stub.close()
	stubReq := mustGet(stub.url + "/v1/hist/h0/point?key=1")
	get := func(req *http.Request) {
		if status, _, err := lane.get(req); err != nil || status != http.StatusOK {
			lv.problem("GET %s: status %d, %v", req.URL, status, err)
		}
	}
	w := newNullWriter()
	handle := func(h http.Handler, req *http.Request) {
		if !w.handle(h, req) {
			lv.problem("handler %s: status %d", req.URL, w.status)
		}
	}
	rng := fork(rc.seed, purposeQueries)
	var points []query
	for _, kind := range []string{"point", "range"} {
		qs := genQueries(rng, replayN, rc.sz, kind, r.served.h)
		routed := make([]*http.Request, replayN)
		direct := make([]*http.Request, replayN)
		entries := make([]*serve.Entry, replayN)
		primaries := make([]*serve.Server, replayN)
		for i, q := range qs {
			name := c.names[q.name]
			sh := c.shardOf(name)
			routed[i] = mustGet(c.front.url + q.path(name))
			direct[i] = mustGet(sh.primaryNode.url + q.path(name))
			primaries[i] = sh.primary
			entries[i], _ = sh.primary.Registry().Lookup(name)
		}
		entryCall := func(k int) { entries[k].Point(qs[k].lo) }
		libCall := func(k int) { rep.PointEstimate(qs[k].lo) }
		if kind == "range" {
			entryCall = func(k int) { entries[k].Range(qs[k].lo, qs[k].hi) }
			libCall = func(k int) { rep.RangeSum(qs[k].lo, qs[k].hi) }
		}
		ns := replayChain(rec, replayN/perNs, []boundary{
			{"client.stub", perNs, func(int) { get(stubReq) }},
			{"ha.router " + kind, perNs, func(k int) { get(routed[k]) }},
			{"serve.http " + kind, perNs, func(k int) { get(direct[k]) }},
			{"serve.handler " + kind, perNs, func(k int) { handle(primaries[k], direct[k]) }},
			{"serve.Entry " + kind, perNs, entryCall},
			{"wavelet " + kind, perNs, libCall},
		})
		stubNs, routerNs, httpNs, handlerNs, entryNs, libNs := ns[0], ns[1], ns[2], ns[3], ns[4], ns[5]
		lv.set("ha.router."+kind+"_us", routerNs/1e3)
		lv.set("serve.handler."+kind+"_us", handlerNs/1e3)
		lv.set("serve.entry."+kind+"_ns", entryNs)
		lv.set("wavelet."+kind+"_ns", libNs)
		if kind == "point" {
			points = qs
			lv.set("client.stub_get_us", stubNs/1e3)
			lv.set("client.stub_get_allocs", allocs(func() { get(stubReq) }))
			lv.set("serve.http.point_us", httpNs/1e3)
			lv.set("serve.handler.point_allocs", allocs(func() { handle(primaries[0], direct[0]) }))
			lv.set("ha.router.point_allocs", allocs(func() { get(routed[0]) }))
			lv.set("ha.router.handler_point_us", sampleNs(rec, "ha.Router.ServeHTTP point", replayN, func(i int) { handle(c.router, routed[i]) })/1e3)
		}
		lv.chains = append(lv.chains, chain{title: "one routed " + kind + " GET", floor: stubNs / 1e3, rows: []chainRow{
			{"internal/wavelet (error-tree walk)", libNs / 1e3},
			{"serve (Entry)", entryNs / 1e3},
			{"serve (handler, no socket)", handlerNs / 1e3},
			{"serve (loopback HTTP to the shard)", httpNs / 1e3},
			{"ha (through the router)", routerNs / 1e3},
		}})
	}

	ring, err := ha.NewRing([]string{"s0", "s1"}, 0)
	if err != nil {
		return err
	}
	lv.set("ha.ring.shard_ns", chunkNs(rec, "ha.Ring.Shard", 64, 256, func(i int) { ring.Shard(c.names[i%len(c.names)]) }))
	buf := make([]byte, 0, 256)
	lv.set("serve.encode.append_estimate_ns", chunkNs(rec, "serve.AppendEstimate", 64, 256, func(i int) {
		q := points[i%len(points)]
		buf = serve.AppendEstimate(buf[:0], c.names[0], 7, q.want, serve.EstimateField{Name: "key", Value: q.lo})
	}))
	return layersRouterExtras(rc, r, rec, lv, lane, points)
}

// layersRouterExtras measures the router paths no workload runs: a lone
// client through a coalescing router, updates through the router, and a
// replica catching up after a republish.
func layersRouterExtras(rc *runCtx, r *rig, rec *recorder, lv *layerValues, lane *httpLane, points []query) error {
	c := r.cluster
	coal, err := ha.NewRouterConfig(c.spec, ha.RouterConfig{CoalesceWait: 250 * time.Microsecond, CoalesceMax: 256})
	if err != nil {
		return err
	}
	defer coal.Close()
	front, err := serveTCP(coal)
	if err != nil {
		return err
	}
	defer front.close()
	const lone = 300 // each waits out the window: more than 1ms apiece
	reqs := make([]*http.Request, lone)
	for i := range reqs {
		reqs[i] = mustGet(front.url + points[i].path(c.names[points[i].name]))
	}
	lv.set("ha.coalesce.point_us", sampleNs(rec, "ha.coalesce point", lone, func(i int) {
		status, body, err := lane.get(reqs[i])
		got, ok := parseEstimate(body)
		if err != nil || status != http.StatusOK || !ok || !sameBits(got, points[i].want) {
			lv.problem("coalesced GET %s differs from the oracle", reqs[i].URL)
		}
	})/1e3)

	// Updates through the router go to a scratch name, so the names the
	// read replays use keep the oracle's histogram.
	const scratch = "scratch"
	sh := c.shardOf(scratch)
	if _, err := sh.primary.Registry().Publish(scratch, r.served.h); err != nil {
		return err
	}
	pool := genUpdates(rc)
	u := mustURL(c.front.url + "/v1/hist/" + scratch + "/updates")
	post := func(body []byte) {
		if status, _, err := lane.post(u, body); err != nil || status != http.StatusOK {
			lv.problem("POST %s: status %d, %v", u, status, err)
		}
	}
	bodies := updateBodies(pool)
	lv.set("ha.router.updates_us.n64", sampleNs(rec, "ha.router updates", replayN/4, func(i int) { post(bodies[i%len(bodies)]) })/1e3)

	// A replica catching up after each of 20 republishes on its primary.
	flush := updatesBody(pool[0], true)
	var syncMs []float64
	for i := 0; i < 20; i++ {
		post(flush)
		sp := rec.begin("ha.Replica.SyncOnce", 0, i+1)
		t0 := time.Now()
		err := sh.follower.SyncOnce(context.Background())
		syncMs = append(syncMs, time.Since(t0).Seconds()*1e3)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	lv.set("ha.replica.sync_ms", median(syncMs))
	return nil
}

// layersRoutedBatch is routed_batch's chain for one 256-query batch of a
// single name — library, Entry.Batch, handler, loopback HTTP, proxied by
// the router — and outside it the cross-shard batch over 8 names the
// workload sends, whose extra cost is the router's regroup and fan-out.
func layersRoutedBatch(rc *runCtx, r *rig, rec *recorder, lv *layerValues) error {
	c := r.cluster
	lane := newHTTPLane(r.tr)
	rep := representation(r.served.h)
	batches := genBatches(rc, r.served.h)
	name := c.names[0]
	sh := c.shardOf(name)
	named := make([][]byte, len(batches))
	cross := make([][]byte, len(batches))
	for i, b := range batches {
		named[i] = mustJSON(map[string]any{"queries": batchQueries(b)})
		cross[i] = namedBatchBody(c.names, b)
	}
	stub, err := stubNode(8 << 10)
	if err != nil {
		return err
	}
	defer stub.close()
	// post returns a boundary call that sends bodies to u; with check, the
	// answer is also compared with the oracle (untimed calls only).
	post := func(u string, bodies [][]byte, check bool) func(k int) {
		target := mustURL(u)
		return func(k int) {
			status, body, err := lane.post(target, bodies[k%len(bodies)])
			if err != nil || status != http.StatusOK || (check && !batchEquals(body, batches[k%len(batches)])) {
				lv.problem("POST %s: status %d, %v, or a wrong answer", u, status, err)
			}
		}
	}
	path := "/v1/hist/" + name + "/query"
	post(c.front.url+"/v1/query", cross, true)(0)
	post(c.front.url+path, named, true)(0)
	post(sh.primaryNode.url+path, named, true)(0)

	w := newNullWriter()
	reqs := make([]*postRequest, len(named))
	for i := range reqs {
		reqs[i] = newPostRequest(sh.primaryNode.url+path, named[i])
	}
	handle := func(k int) {
		if !w.handle(sh.primary, reqs[k%len(reqs)].reset()) {
			lv.problem("batch handler: status %d", w.status)
		}
	}
	e, _ := sh.primary.Registry().Lookup(name)
	entry, lib := entryBatchChain(e, rep, batches)
	ns := replayChain(rec, replayN/4, []boundary{
		{"client.stub batch", 1, post(stub.url+"/v1/query", cross, false)},
		{"ha.router cross batch", 1, post(c.front.url+"/v1/query", cross, false)},
		{"ha.router named batch", 1, post(c.front.url+path, named, false)},
		{"serve.http batch", 1, post(sh.primaryNode.url+path, named, false)},
		{"serve.handler batch", 1, handle},
		entry, lib,
	})
	stubNs, crossNs, namedNs, httpNs, handlerNs, entryNs, libNs := ns[0], ns[1], ns[2], ns[3], ns[4], ns[5], ns[6]
	lv.set("client.stub_batch_us", stubNs/1e3)
	lv.set("ha.router.batch_us.n256", crossNs/1e3)
	lv.set("ha.router.named_batch_us.n256", namedNs/1e3)
	lv.set("serve.http.batch_us.n256", httpNs/1e3)
	lv.set("serve.handler.batch_us.n256", handlerNs/1e3)
	lv.set("serve.handler.batch_allocs.n256", allocs(func() { handle(0) }))
	lv.set("serve.entry.batch_us.n256", entryNs/1e3)
	lv.chains = append(lv.chains, chain{title: "one 256-query batch of one name", floor: stubNs / 1e3, rows: []chainRow{
		{"internal/wavelet (BatchPoints + BatchRanges)", libNs / 1e3},
		{"serve (Entry.Batch)", entryNs / 1e3},
		{"serve (handler, no socket)", handlerNs / 1e3},
		{"serve (loopback HTTP to the shard)", httpNs / 1e3},
		{"ha (router, proxied whole)", namedNs / 1e3},
		{"ha (router, /v1/query over 8 names: the workload)", crossNs / 1e3},
	}})
	return nil
}

// layersMixed is serve_mixed's two chains: the point read (library,
// Entry, handler, loopback HTTP) and the 64-update request (maintainer,
// handler, loopback HTTP), plus what a republish costs.
func layersMixed(rc *runCtx, r *rig, rec *recorder, lv *layerValues) error {
	lane := newHTTPLane(r.tr)
	rep := representation(r.served.h)
	qs := genQueries(fork(rc.seed, purposeQueries), replayN, rc.sz, "point", r.served.h)
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		reqs[i] = mustGet(r.node.url + q.path(mixedName))
	}
	w := newNullWriter()
	handle := func(req *http.Request) {
		if !w.handle(r.mixed, req) {
			lv.problem("handler %s: status %d", req.URL, w.status)
		}
	}
	e, _ := r.mixed.Registry().Lookup(mixedName)
	ns := replayChain(rec, replayN/perNs, []boundary{
		{"serve.http point", perNs, func(k int) {
			if status, _, err := lane.get(reqs[k]); err != nil || status != http.StatusOK {
				lv.problem("GET %s: status %d, %v", reqs[k].URL, status, err)
			}
		}},
		{"serve.handler point", perNs, func(k int) { handle(reqs[k]) }},
		{"serve.Entry point", perNs, func(k int) { e.Point(qs[k].lo) }},
		{"wavelet point", perNs, func(k int) { rep.PointEstimate(qs[k].lo) }},
	})
	httpNs, handlerNs, entryNs, libNs := ns[0], ns[1], ns[2], ns[3]
	lv.set("serve.http.point_us", httpNs/1e3)
	lv.set("serve.handler.point_us", handlerNs/1e3)
	lv.set("serve.handler.point_allocs", allocs(func() { handle(reqs[0]) }))
	lv.set("serve.entry.point_ns", entryNs)
	lv.set("wavelet.point_ns", libNs)
	lv.chains = append(lv.chains, chain{title: "one point GET", rows: []chainRow{
		{"internal/wavelet (error-tree walk)", libNs / 1e3},
		{"serve (Entry)", entryNs / 1e3},
		{"serve (handler, no socket)", handlerNs / 1e3},
		{"serve (loopback HTTP)", httpNs / 1e3},
	}})

	// The write side, on the same stream the loop posts.
	pool := genUpdates(rc)
	bodies := updateBodies(pool)
	posts := make([]*postRequest, len(pool))
	u := mustURL(r.node.url + "/v1/hist/" + mixedName + "/updates")
	for i := range posts {
		posts[i] = newPostRequest(u.String(), bodies[i])
	}
	m := wavelet.NewMaintainer(rc.sz.Domain, coefsOf(r.served.h), r.served.h.K(), 4*r.served.h.K())
	per := rc.sz.UpdatesPer
	before := m.RepairOps()
	const n = replayN / 2
	ns = replayChain(rec, n, []boundary{
		{"serve.http updates", 1, func(k int) {
			if status, _, err := lane.post(u, bodies[k%len(bodies)]); err != nil || status != http.StatusOK {
				lv.problem("POST %s: status %d, %v", u, status, err)
			}
		}},
		{"serve.handler updates", 1, func(k int) { handle(posts[k%len(posts)].reset()) }},
		{"wavelet.Maintainer.Update x64", 1, func(k int) {
			for _, up := range pool[k%len(pool)] {
				m.Update(up.Key, up.Delta)
			}
		}},
	})
	upHTTPNs, upHandlerNs, upNs := ns[0], ns[1], ns[2]
	lv.set("serve.http.updates_us.n64", upHTTPNs/1e3)
	lv.set("serve.handler.updates_us.n64", upHandlerNs/1e3)
	lv.set("serve.handler.updates_allocs.n64", allocs(func() { handle(posts[0].reset()) }))
	lv.set("wavelet.maintainer.update_ns", upNs/float64(per))
	lv.set("wavelet.maintainer.repair_ops_per_update", float64(m.RepairOps()-before)/float64(n*per))
	lv.chains = append(lv.chains, chain{title: "one 64-update POST (median: three in four do not republish)", rows: []chainRow{
		{"internal/wavelet (64 x Maintainer.Update)", upNs / 1e3},
		{"serve (handler, no socket)", upHandlerNs / 1e3},
		{"serve (loopback HTTP)", upHTTPNs / 1e3},
	}})

	// A snapshot after every republishEvery updates, as the server takes,
	// and the registry publish that follows it.
	reg := serve.NewRegistry()
	var snapNs, pubNs []int64
	for i := 0; i < 200; i++ {
		for j := 0; j < republishEvery/per; j++ {
			for _, up := range pool[(i*4+j)%len(pool)] {
				m.Update(up.Key, up.Delta)
			}
		}
		snap := rec.begin("wavelet.Maintainer.Representation", 0, i+1)
		t0 := time.Now()
		m.Representation()
		t1 := time.Now()
		rec.end(snap)
		pub := rec.begin("serve.Registry.Publish", snap, i+1)
		_, err := reg.Publish(mixedName, r.served.h)
		t2 := time.Now()
		rec.end(pub)
		if err != nil {
			return err
		}
		snapNs, pubNs = append(snapNs, int64(t1.Sub(t0))), append(pubNs, int64(t2.Sub(t1)))
	}
	lv.set("wavelet.maintainer.snapshot_us", summarize(snapNs, 1e3).P50)
	lv.set("serve.registry.publish_us", summarize(pubNs, 1e3).P50)
	return nil
}
