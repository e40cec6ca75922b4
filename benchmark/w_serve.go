package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"wavelethist"
	"wavelethist/ha"
	"wavelethist/serve"
)

// rig is what a workload's set-up leaves behind for its loop and its
// layer measurements. Each workload fills the fields it needs.
type rig struct {
	build   *buildRig
	served  *served
	reg     *serve.Registry // embed_batch
	cluster *cluster        // routed_get, routed_batch
	mixed   *serve.Server   // serve_mixed
	node    *httpNode       // serve_mixed
	tr      *http.Transport // the load generator's connections

	// genRecords were generated in genS seconds during set-up.
	genRecords int64
	genS       float64
}

func (r *rig) close() {
	if r.tr != nil {
		r.tr.CloseIdleConnections()
	}
	if r.cluster != nil {
		r.cluster.close()
	}
	if r.node != nil {
		r.node.close()
	}
	if r.mixed != nil {
		r.mixed.Close()
	}
}

// mixedName is the histogram serve_mixed updates and reads; embedName the
// one embed_batch looks up.
const (
	mixedName = "mixed"
	embedName = "embed"
)

// setupServing builds the serving histogram and brings up what the
// workload queries it through.
func setupServing(rc *runCtx) (*rig, error) {
	sv, err := buildServed(rc.sz, rc.seed)
	if err != nil {
		return nil, err
	}
	r := &rig{served: sv, genRecords: rc.sz.ServeRecords, genS: sv.genS}
	switch rc.workload {
	case "embed_batch":
		r.reg = serve.NewRegistry()
		_, err = r.reg.Publish(embedName, sv.h)
	case "routed_get", "routed_batch":
		r.tr = newTransport()
		r.cluster, err = startCluster(rc.sz, sv.h)
	case "serve_mixed":
		r.tr = newTransport()
		if r.mixed, err = serve.NewServer(serve.Config{}); err != nil {
			break
		}
		if _, err = r.mixed.Registry().Publish(mixedName, sv.h); err != nil {
			break
		}
		r.node, err = serveTCP(r.mixed)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// servedAccuracy is comm_bytes and sse_ratio of a serving workload: the
// cost and accuracy of the histogram it serves.
func (o *outcome) servedAccuracy(rc *runCtx, sv *served, h *wavelethist.Histogram, exact map[int64]float64) {
	o.comm = float64(sv.comm)
	o.sse = newAccuracy(exact, rc.sz.Domain, rc.sz.ServeK).ratio(h)
}

// genBatches draws the pre-generated batch requests: BatchQueries queries
// each, alternating point and range, names rotating.
func genBatches(rc *runCtx, h *wavelethist.Histogram) [][]query {
	r := fork(rc.seed, purposeQueries)
	batches := make([][]query, rc.sz.Batches)
	for i := range batches {
		batches[i] = genQueries(r, rc.sz.BatchQueries, rc.sz, "mixed", h)
	}
	return batches
}

// loopEmbed is embed_batch: each client looks the histogram up and answers
// one pre-generated batch, in process.
func loopEmbed(rc *runCtx, r *rig, secs float64, rec *recorder) (*outcome, error) {
	batches := genBatches(rc, r.served.h)
	in := make([][]serve.BatchQuery, len(batches))
	for i, b := range batches {
		in[i] = batchQueries(b)
	}
	answer := func(results []serve.BatchResult, i int, full bool) bool {
		e, ok := r.reg.Lookup(embedName)
		if !ok {
			return false
		}
		e.Batch(in[i], results)
		for j := range results {
			if results[j].Error != "" || (full && !sameBits(results[j].Estimate, batches[i][j].want)) {
				return false
			}
		}
		return true
	}
	var out outcome
	scratch := make([]serve.BatchResult, rc.sz.BatchQueries)
	for i := range in { // verification: every estimate of every batch
		out.attempted++
		if !answer(scratch, i, true) {
			out.fail(1, "verification: batch %d differs from the oracle", i)
		}
	}
	ops := make([]op, clients)
	for l := range ops {
		results := make([]serve.BatchResult, rc.sz.BatchQueries)
		ops[l] = func(i int) bool {
			sp := rec.begin("serve.Entry.Batch", 0, i*clients+l)
			ok := answer(results, (i+l*len(in)/clients)%len(in), i%fullCheckEvery == 0)
			rec.end(sp)
			return ok
		}
	}
	mark := markProc()
	out.lanesOf(closedLoop(ops, secs), mark)
	out.servedAccuracy(rc, r.served, r.served.h, r.served.ds.ExactFrequencies())
	out.estimatesDetail(rc.sz.BatchQueries, 0, 1)
	return &out, nil
}

// estimatesDetail records the read lanes' combined estimate rate under
// the name the defining issue used.
func (o *outcome) estimatesDetail(perOp int, readLanes ...int) {
	var rate float64
	for _, l := range readLanes {
		rate += o.lanes[l].perS * float64(perOp)
	}
	o.note("estimates_per_s", metricValue{Value: rate, Unit: "1/s"})
}

// loopRoutedGet is routed_get: client 0 sends point GETs and client 1
// range GETs through the router, names rotating over both shards.
func loopRoutedGet(rc *runCtx, r *rig, secs float64, rec *recorder) (*outcome, error) {
	c := r.cluster
	rng := fork(rc.seed, purposeQueries)
	var out outcome
	ops := make([]op, clients)
	for l, kind := range []string{"point", "range"} {
		qs := genQueries(rng, rc.sz.Gets, rc.sz, kind, r.served.h)
		reqs := make([]*http.Request, len(qs))
		for i, q := range qs {
			reqs[i] = mustGet(c.front.url + q.path(c.names[q.name]))
		}
		lane := newHTTPLane(r.tr)
		ask := func(i int, full bool) bool {
			status, body, err := lane.get(reqs[i])
			if err != nil || !estimateShape(status, body) {
				return false
			}
			if !full {
				return true
			}
			got, ok := parseEstimate(body)
			return ok && sameBits(got, qs[i].want)
		}
		for i := range reqs { // verification: every pre-generated request once
			out.attempted++
			if !ask(i, true) {
				out.fail(1, "verification: %s differs from the oracle", reqs[i].URL)
			}
		}
		name := "GET " + kind
		ops[l] = func(i int) bool {
			sp := rec.begin(name, 0, i*clients+l)
			ok := ask(i%len(reqs), i%fullCheckEvery == 0)
			rec.end(sp)
			return ok
		}
	}
	before, mark := c.upstreamConns(), markProc()
	res := closedLoop(ops, secs)
	out.lanesOf(res, mark)
	out.servedAccuracy(rc, r.served, r.served.h, r.served.ds.ExactFrequencies())
	out.estimatesDetail(1, 0, 1)
	out.connsDetail(c.upstreamConns()-before, res)
	return &out, nil
}

// connsDetail records new upstream connections per 1000 routed requests.
func (o *outcome) connsDetail(conns int64, res []laneResult) {
	total := 0
	for _, r := range res {
		total += r.ops
	}
	if total > 0 {
		o.note("ha.router.upstream_conns_per_kreq", metricValue{Value: 1000 * float64(conns) / float64(total), Unit: "count", Samples: total})
	}
}

// namedBatchBody marshals one cross-shard batch request.
func namedBatchBody(names []string, b []query) []byte {
	named := make([]ha.NamedQuery, len(b))
	for i, q := range b {
		named[i] = ha.NamedQuery{Name: names[q.name], BatchQuery: q.batchQuery()}
	}
	return mustJSON(map[string]any{"queries": named})
}

// loopRoutedBatch is routed_batch: both clients POST pre-marshalled
// cross-shard batches to /v1/query, so each request fans out to one
// upstream call per name.
func loopRoutedBatch(rc *runCtx, r *rig, secs float64, rec *recorder) (*outcome, error) {
	c := r.cluster
	batches := genBatches(rc, r.served.h)
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = namedBatchBody(c.names, b)
	}
	u := mustURL(c.front.url + "/v1/query")
	var out outcome
	ops := make([]op, clients)
	for l := range ops {
		lane := newHTTPLane(r.tr)
		ask := func(i int, full bool) bool {
			status, body, err := lane.post(u, bodies[i])
			if err != nil || !batchShape(status, body, len(batches[i])) {
				return false
			}
			return !full || batchEquals(body, batches[i])
		}
		if l == 0 {
			for i := range bodies { // verification: every estimate of every batch
				out.attempted++
				if !ask(i, true) {
					out.fail(1, "verification: batch %d differs from the oracle", i)
				}
			}
		}
		ops[l] = func(i int) bool {
			sp := rec.begin("POST /v1/query", 0, i*clients+l)
			ok := ask((i+l*len(bodies)/clients)%len(bodies), i%fullCheckEvery == 0)
			rec.end(sp)
			return ok
		}
	}
	before, mark := c.upstreamConns(), markProc()
	res := closedLoop(ops, secs)
	out.lanesOf(res, mark)
	out.servedAccuracy(rc, r.served, r.served.h, r.served.ds.ExactFrequencies())
	out.estimatesDetail(rc.sz.BatchQueries, 0, 1)
	out.connsDetail(c.upstreamConns()-before, res)
	return &out, nil
}

// genUpdates draws the pre-generated update requests: uniform keys, three
// insertions to one deletion.
func genUpdates(rc *runCtx) [][]serve.KeyUpdate {
	r := fork(rc.seed, purposeUpdates)
	pool := make([][]serve.KeyUpdate, rc.sz.UpdateBodies)
	for i := range pool {
		pool[i] = make([]serve.KeyUpdate, rc.sz.UpdatesPer)
		for j := range pool[i] {
			delta := 1.0
			if r.next()%4 == 0 {
				delta = -1
			}
			pool[i][j] = serve.KeyUpdate{Key: r.intn(rc.sz.Domain), Delta: delta}
		}
	}
	return pool
}

func updatesBody(us []serve.KeyUpdate, flush bool) []byte {
	return mustJSON(map[string]any{"updates": us, "flush": flush})
}

// updateBodies pre-marshals the pool's requests.
func updateBodies(pool [][]serve.KeyUpdate) [][]byte {
	bodies := make([][]byte, len(pool))
	for i, us := range pool {
		bodies[i] = updatesBody(us, false)
	}
	return bodies
}

// mustJSON marshals a request body the benchmark built from plain structs
// of strings and numbers, which cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// republishEvery is serve.Config's default RepublishEvery, which the
// benchmark's server keeps; the replay below must use the same cadence.
const republishEvery = 256

// replayUpdates is the oracle for serve_mixed's writes: it applies the
// first n requests of the cycled update pool to an in-process maintainer
// seeded from h, snapshotting at the server's republish cadence and once
// more at the end (the flush). It also returns the snapshot taken after
// prefix requests — prefix must be a multiple of the cadence, so that the
// replay takes no snapshot the server did not take — and adds those
// requests' updates to exact.
func replayUpdates(h *wavelethist.Histogram, pool [][]serve.KeyUpdate, n, prefix int, exact map[int64]float64) (final, atPrefix *wavelethist.Histogram, err error) {
	mh, err := wavelethist.MaintainHistogram(h, h.K(), 0)
	if err != nil {
		return nil, nil, err
	}
	atPrefix = h
	pending := 0
	for i := 0; i < n; i++ {
		for _, u := range pool[i%len(pool)] {
			mh.Update(u.Key, u.Delta)
			if i < prefix {
				exact[u.Key] += u.Delta
			}
		}
		if pending += len(pool[i%len(pool)]); pending >= republishEvery {
			snap := mh.Histogram()
			pending = 0
			if i+1 == prefix {
				atPrefix = snap
			}
		}
	}
	return mh.Histogram(), atPrefix, nil
}

// accuracyPrefix is how many update requests sse_ratio of serve_mixed is
// evaluated after; a real run sends several times as many.
const accuracyPrefix = 2048

// loopMixed is serve_mixed: client 0 posts update batches back to back to
// one writable wavehistd while client 1 reads points of the same name.
func loopMixed(rc *runCtx, r *rig, secs float64, rec *recorder) (*outcome, error) {
	h0 := r.served.h
	pool := genUpdates(rc)
	bodies := updateBodies(pool)
	base := r.node.url + "/v1/hist/" + mixedName
	qs := genQueries(fork(rc.seed, purposeQueries), rc.sz.Gets, rc.sz, "point", h0)
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		reqs[i] = mustGet(r.node.url + q.path(mixedName))
	}
	var out outcome
	reader, writer := newHTTPLane(r.tr), newHTTPLane(r.tr)
	for i := range reqs { // verification, before the first update: reads against the oracle
		out.attempted++
		status, body, err := reader.get(reqs[i])
		got, ok := parseEstimate(body)
		if err != nil || !estimateShape(status, body) || !ok || !sameBits(got, qs[i].want) {
			out.fail(1, "verification: %s differs from the oracle", reqs[i].URL)
		}
	}
	var (
		posted, republished int
		uURL                = mustURL(base + "/updates")
		applied             = []byte(fmt.Sprintf(`"applied":%d,`, rc.sz.UpdatesPer))
	)
	ops := []op{
		func(i int) bool {
			sp := rec.begin("POST updates", 0, i*clients)
			status, body, err := writer.post(uURL, bodies[i%len(bodies)])
			rec.end(sp)
			posted++
			if bytes.Contains(body, []byte(`"republished":true`)) {
				republished++
			}
			return err == nil && status == http.StatusOK && bytes.Contains(body, applied)
		},
		func(i int) bool {
			sp := rec.begin("GET point", 0, i*clients+1)
			status, body, err := reader.get(reqs[i%len(reqs)])
			rec.end(sp)
			return err == nil && estimateShape(status, body)
		},
	}
	mark := markProc()
	res := closedLoop(ops, secs)
	out.lanesOf(res, mark)

	// The oracle for the writes: flush, then the served coefficients must
	// equal an in-process replay of the same stream at the same cadence.
	// sse_ratio is taken after a fixed prefix of the stream, so it depends
	// on the seed alone, not on how many requests this run had time for.
	cadence := max(1, republishEvery/rc.sz.UpdatesPer)
	prefix := min(accuracyPrefix, posted) / cadence * cadence
	exact := r.served.ds.ExactFrequencies()
	want, at, err := replayUpdates(h0, pool, posted, prefix, exact)
	if err != nil {
		return nil, err
	}
	out.attempted++
	status, _, err := writer.post(uURL, updatesBody(nil, true))
	if e, ok := r.mixed.Registry().Lookup(mixedName); err != nil || status != http.StatusOK || !ok {
		out.fail(1, "flush failed: status %d, %v", status, err)
	} else if !sameCoefficients(e.H, want, true) {
		out.fail(1, "served coefficients differ from the replay of %d update requests", posted)
	}
	out.servedAccuracy(rc, r.served, at, exact)
	out.estimatesDetail(1, 1)
	out.note("updates_per_s", metricValue{Value: out.lanes[0].perS * float64(rc.sz.UpdatesPer), Unit: "1/s"})
	if p50, ok := serverPointP50(reader, r.node.url); ok {
		out.note("serve.stats.point_p50_us", metricValue{Value: p50, Unit: "us"})
	}
	if posted > 0 {
		out.note("serve.updates.republish_ratio", metricValue{Value: float64(republished) / float64(posted), Unit: "ratio", Samples: posted})
	}
	return &out, nil
}

// serverPointP50 reads the server's own view of point-read latency for
// the mixed histogram out of /v1/stats.
func serverPointP50(lane *httpLane, base string) (float64, bool) {
	status, body, err := lane.get(mustGet(base + "/v1/stats"))
	if err != nil || status != http.StatusOK {
		return 0, false
	}
	var stats struct {
		Histograms map[string]struct {
			Stats struct {
				Point struct {
					P50Micros float64 `json:"p50_micros"`
				} `json:"point"`
			} `json:"stats"`
		} `json:"histograms"`
	}
	if json.Unmarshal(body, &stats) != nil {
		return 0, false
	}
	h, ok := stats.Histograms[mixedName]
	return h.Stats.Point.P50Micros, ok
}
