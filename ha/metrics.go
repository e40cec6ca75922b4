package ha

import (
	"bytes"
	"net/http"
	"sort"
	"sync"
	"time"

	"wavelethist/internal/obs"
	"wavelethist/serve"
)

// Router observability: every route is wrapped in a latency histogram and
// request counter (label route), and the router's forwarding counters are
// collected at scrape time. Exposed at GET /metrics on the router itself —
// a stateless front door still has health worth watching (failover rate is
// the earliest "a primary is down" signal in the cluster).

func (rt *Router) initMetrics() {
	m := obs.NewRegistry()
	rt.metrics = m
	// The coalescer instruments are registered unconditionally so the
	// families exist (at zero) on routers running with coalescing off —
	// dashboards and alert rules need no config-conditional queries.
	rt.coalesced = m.Counter("waverouter_coalesced_queries_total",
		"Single-query GETs merged into shard batches by the router-side coalescer.")
	rt.coalesceSize = m.Histogram("waverouter_coalesce_batch_size",
		"Coalesced batch sizes, recorded as size in nanoseconds: a bucket boundary of s seconds covers batches up to s*1e9 queries.")
	rt.batchDecoded = serve.NewBatchDecodeCounter(m)
	m.Collect(func(w *obs.Writer) {
		w.Counter("waverouter_proxied_total", "Requests forwarded to an upstream daemon.", float64(rt.proxied.Load()))
		w.Counter("waverouter_failovers_total", "Read retries against a replica after a primary failed.", float64(rt.failovers.Load()))
		w.Gauge("waverouter_shards", "Shards in the routing ring.", float64(len(rt.shards())))
		w.Gauge("waverouter_coalesce_queue_depth",
			"Queries currently parked in the coalescer awaiting batch dispatch.", float64(rt.coalesceDepth.Load()))
		rt.collectTopology(w)
	})
}

// collectTopology emits the failover posture: per-shard role health
// (primary up 0/1, replicas up count — against the LIVE topology, so a
// promotion moves the samples with it), the promotion/demotion
// counters, and the breaker counters. Without a health checker every
// target is reported up: the families must exist on static routers so
// alert rules need no config-conditional queries.
func (rt *Router) collectTopology(w *obs.Writer) {
	const stateHelp = "Per-shard role health: primary up (0/1) and count of up replicas, per the router's health checker (all up when probing is off)."
	topo := rt.topo.Load()
	ids := make([]string, 0, len(topo.shards))
	for id := range topo.shards {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		sh := topo.shards[id]
		pUp := 1.0
		if rt.health != nil && !rt.health.isUp(sh.Primary) {
			pUp = 0
		}
		rUp := 0.0
		for _, rep := range sh.Replicas {
			if rt.health == nil || rt.health.isUp(rep) {
				rUp++
			}
		}
		w.Gauge("waverouter_shard_state", stateHelp, pUp, obs.L("shard", id), obs.L("role", "primary"))
		w.Gauge("waverouter_shard_state", stateHelp, rUp, obs.L("shard", id), obs.L("role", "replica"))
	}
	var promotions, demotions float64
	if rt.health != nil {
		promotions = float64(rt.health.promotions.Load())
		demotions = float64(rt.health.demotions.Load())
	}
	w.Counter("waverouter_promotions_total", "Replicas auto-promoted to primary by the health checker.", promotions)
	w.Counter("waverouter_demotions_total", "Writable targets fenced read-only (superseded lineages).", demotions)
	w.Counter("waverouter_breaker_trips_total", "Circuit breakers opened after consecutive target failures.", float64(rt.breakers.trips.Load()))
	w.Counter("waverouter_breaker_skips_total", "Requests refused fast by an open circuit breaker.", float64(rt.breakers.skips.Load()))
}

// Metrics exposes the router's metrics registry. Note GET /metrics on
// the router serves more than this registry: see handleMetrics.
func (rt *Router) Metrics() *obs.Registry { return rt.metrics }

// handleMetrics serves the aggregated cluster exposition: the router's
// own families plus every shard's /metrics page re-labeled with
// shard="<id>" — one scrape target covering the whole fleet, no
// Prometheus federation required. A shard that is unreachable (primary
// and all replicas) or returns an unparsable page contributes only
// waverouter_shard_up{shard} = 0; everything else keeps flowing.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	merged := map[string]*obs.Family{}
	var buf bytes.Buffer
	if err := rt.metrics.Expose(&buf); err == nil {
		if own, err := obs.ParseExposition(buf.String()); err == nil {
			obs.MergeFamilies(merged, own)
		}
	}

	type shardFams struct {
		id   string
		fams map[string]*obs.Family
	}
	results := make([]shardFams, 0, len(rt.shards()))
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for id, sh := range rt.shards() {
		wg.Add(1)
		go func(id string, sh *Shard) {
			defer wg.Done()
			var fams map[string]*obs.Family
			if resp, err := rt.readShard(r.Context(), sh, http.MethodGet, "/metrics", "", nil); err == nil && resp.status == http.StatusOK {
				fams, _ = obs.ParseExposition(string(resp.body))
			}
			mu.Lock()
			results = append(results, shardFams{id: id, fams: fams})
			mu.Unlock()
		}(id, sh)
	}
	wg.Wait()
	sort.Slice(results, func(i, j int) bool { return results[i].id < results[j].id })

	up := &obs.Family{
		Name: "waverouter_shard_up",
		Type: obs.TypeGauge,
		Help: "1 when the shard's /metrics was scraped and parsed on this request.",
	}
	for _, res := range results {
		v := 0.0
		if res.fams != nil {
			obs.MergeFamilies(merged, res.fams, obs.L("shard", res.id))
			v = 1
		}
		up.Samples = append(up.Samples, obs.Sample{
			Name:   "waverouter_shard_up",
			Labels: map[string]string{"shard": res.id},
			Value:  v,
		})
	}
	merged["waverouter_shard_up"] = up

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var out bytes.Buffer
	if err := obs.RenderFamilies(&out, merged); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(out.Bytes())
}

// timed wraps a handler with a per-route latency histogram and request
// counter. The route label is a fixed name, not the raw path, so
// cardinality stays bounded.
func (rt *Router) timed(route string, h http.HandlerFunc) http.HandlerFunc {
	dur := rt.metrics.Histogram("waverouter_request_duration_seconds",
		"Router-side request latency by route (including upstream time).", obs.L("route", route))
	total := rt.metrics.Counter("waverouter_requests_total",
		"Requests handled by route.", obs.L("route", route))
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		dur.Observe(time.Since(t0))
		total.Inc()
	}
}
