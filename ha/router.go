package ha

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wavelethist/internal/obs"
)

// Shard is one shard's endpoints: the writable primary plus zero or more
// read replicas (in retry order).
type Shard struct {
	ID       string   `json:"id"`
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// Router is the stateless front door of a sharded wavehistd cluster. It
// owns no histogram state — placement is recomputed per request from the
// consistent-hash ring — so any number of routers can run behind a load
// balancer with zero coordination.
//
// Routing policy:
//   - Per-name requests (point, range, batch, updates, build) go to the
//     owning shard. Reads that fail against the primary (network error
//     or 5xx) retry against its replicas in order; mutations never fail
//     over, because a replica cannot accept writes.
//   - GET /v1/hist and /v1/stats fan out to every shard and merge.
//   - POST /v1/query is the cross-shard batch endpoint: queries naming
//     different histograms are grouped per shard, sent as one query
//     frame per shard concurrently, and reassembled in request order
//     (crossbatch.go).
//   - POST /v1/datasets broadcasts to every primary, so a later build
//     can land on whichever shard owns the histogram name.
type Router struct {
	ring *Ring
	// topo is the dynamic shard map: an immutable snapshot swapped
	// atomically when the health checker promotes a replica or fences a
	// resurrected primary. Request paths load it once and never see a
	// half-updated topology; topoMu serializes writers only.
	topo   atomic.Pointer[topology]
	topoMu sync.Mutex
	// client is the one upstream HTTP client — proxying, the batch hop,
	// the coalescer and the health prober all share its connection pool.
	client *http.Client
	mux    *http.ServeMux

	// readTimeout bounds proxied reads (readTimeoutDefault; the chaos
	// tests shorten it).
	readTimeout time.Duration

	breakers *breakerSet
	health   *healthChecker // nil unless ProbeInterval > 0

	metrics *obs.Registry

	proxied   atomic.Uint64 // requests forwarded upstream
	failovers atomic.Uint64 // retries against a further target

	// Query coalescing (coalesce.go): nil unless RouterConfig.CoalesceWait
	// is set. The depth gauge and the dispatch instruments live on the
	// Router so the metric families exist even with coalescing off.
	coal          *coalescer
	coalesceDepth atomic.Int64
	coalesced     *obs.Counter
	coalesceSize  *obs.Histogram
	batchDecoded  func(scanned bool)
}

// topology is one immutable view of the shard map. Shards and their
// replica slices are never mutated in place — swaps build fresh copies.
type topology struct {
	version uint64 // bumped on every swap
	shards  map[string]*Shard
}

// RouterConfig tunes the router's optional behaviours; the zero value
// matches NewRouter.
type RouterConfig struct {
	// CoalesceWait enables router-side query coalescing: single-query
	// GETs (point, range) arriving for the same histogram within this
	// window are merged into one shard batch and scattered
	// back in arrival order. 0 disables coalescing.
	CoalesceWait time.Duration
	// CoalesceMax caps how many queries one coalesced batch may carry; a
	// full batch dispatches immediately instead of waiting out the
	// window. 0 = default (256).
	CoalesceMax int

	// ProbeInterval enables the health checker: every target's /healthz
	// is probed on this interval, each probe taking at most
	// min(ProbeInterval, 1s); primaries are marked down after
	// probeFailThreshold consecutive failures, and the most caught-up
	// replica is promoted with an epoch fencing token and the topology
	// swapped. 0 disables probing (a static topology).
	ProbeInterval time.Duration
}

// Per-request-class deadlines: reads must fail fast (a stuck shard
// should cost milliseconds, not the mutation ceiling); mutations —
// builds, dataset creation — may legitimately run long.
const (
	readTimeoutDefault = 2 * time.Second
	mutationTimeout    = 60 * time.Second
)

// maxBodyBytes bounds every request body the router reads and every
// upstream response it buffers, matching serve's limit of the same name.
const maxBodyBytes = 8 << 20

// NewRouter builds a router over the given shards (at least one, unique
// IDs, each with a primary) with default configuration.
func NewRouter(shards []Shard) (*Router, error) {
	return NewRouterConfig(shards, RouterConfig{})
}

// NewRouterConfig builds a router with explicit configuration.
func NewRouterConfig(shards []Shard, cfg RouterConfig) (*Router, error) {
	ids := make([]string, 0, len(shards))
	byID := make(map[string]*Shard, len(shards))
	for i := range shards {
		sh := shards[i]
		if sh.Primary == "" {
			return nil, fmt.Errorf("ha: shard %q has no primary", sh.ID)
		}
		sh.Primary = trimSlash(sh.Primary)
		for j, rep := range sh.Replicas {
			sh.Replicas[j] = trimSlash(rep)
		}
		ids = append(ids, sh.ID)
		byID[sh.ID] = &sh
	}
	ring, err := NewRing(ids, 0)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		ring: ring,
		// No client-level timeout: deadlines are per request class via
		// context (doTarget), so a slow build proxy cannot be killed by
		// a read ceiling nor a read stalled for the mutation one.
		client:      &http.Client{Transport: newUpstreamTransport()},
		mux:         http.NewServeMux(),
		readTimeout: readTimeoutDefault,
		breakers:    newBreakerSet(time.Now().UnixNano()),
	}
	rt.topo.Store(&topology{version: 1, shards: byID})
	if cfg.ProbeInterval > 0 {
		rt.health = newHealthChecker(rt, cfg.ProbeInterval)
	}
	rt.initMetrics()
	if cfg.CoalesceWait > 0 {
		max := cfg.CoalesceMax
		if max <= 0 {
			max = 256
		}
		rt.coal = newCoalescer(rt, cfg.CoalesceWait, max)
	}
	rt.routes()
	if rt.health != nil {
		rt.health.start()
	}
	return rt, nil
}

// Close stops the router's background loops (health checker) and drops
// its idle upstream connections. Safe to call on routers created
// without a checker.
func (rt *Router) Close() {
	if rt.health != nil {
		rt.health.stop()
	}
	rt.client.CloseIdleConnections()
}

// upstreamIdleConnsPerHost is how many kept-alive connections the router
// holds per shard target. It is sized for fan-out, not tuned: the pool
// must cover the upstream calls in flight to one host, or every call
// past it dials. http.DefaultTransport keeps 2, and with it a 256-query
// dashboard plan cost ha.router.upstream_conns_per_kreq = 5 900 new TCP
// connections per 1000 requests (benchmark/README.md, routed_batch);
// with the pool covering the concurrency that is ~0. An idle connection
// costs a descriptor and two small buffers.
const upstreamIdleConnsPerHost = 64

// newUpstreamTransport is http.DefaultTransport's configuration with a
// connection pool the router owns: per-host idle limit as above, no
// global idle cap (targets are few and fixed).
func newUpstreamTransport() *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = upstreamIdleConnsPerHost
	return tr
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Shard returns the shard owning a histogram name, resolved against the
// current topology snapshot.
func (rt *Router) Shard(name string) *Shard { return rt.topo.Load().shards[rt.ring.Shard(name)] }

// shards returns the current topology's shard map. The map and its
// *Shard values are immutable — hold the pointer, never mutate.
func (rt *Router) shards() map[string]*Shard { return rt.topo.Load().shards }

// swapPrimary installs a new topology snapshot in which newPrimary
// leads shardID and the former primary (if different) is appended to
// the replica list — the router-side half of a promotion or of adopting
// a primary discovered via probes after a router restart.
func (rt *Router) swapPrimary(shardID, newPrimary string) {
	rt.topoMu.Lock()
	defer rt.topoMu.Unlock()
	old := rt.topo.Load()
	sh, ok := old.shards[shardID]
	if !ok || sh.Primary == newPrimary {
		return
	}
	next := &Shard{ID: shardID, Primary: newPrimary}
	next.Replicas = append(next.Replicas, sh.Primary)
	for _, rep := range sh.Replicas {
		if rep != newPrimary {
			next.Replicas = append(next.Replicas, rep)
		}
	}
	shards := make(map[string]*Shard, len(old.shards))
	for id, s := range old.shards {
		shards[id] = s
	}
	shards[shardID] = next
	rt.topo.Store(&topology{version: old.version + 1, shards: shards})
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /v1/router", rt.handleTopology)
	rt.mux.HandleFunc("GET /v1/hist", rt.timed("list", rt.handleList))
	rt.mux.HandleFunc("GET /v1/hist/{name}/point", rt.timed("point", rt.maybeCoalesce("point", rt.handleNamedRead)))
	rt.mux.HandleFunc("GET /v1/hist/{name}/range", rt.timed("range", rt.maybeCoalesce("range", rt.handleNamedRead)))
	rt.mux.HandleFunc("POST /v1/hist/{name}/query", rt.timed("batch", rt.handleNamedRead))
	rt.mux.HandleFunc("POST /v1/hist/{name}/updates", rt.timed("updates", rt.handleNamedWrite))
	rt.mux.HandleFunc("POST /v1/query", rt.timed("cross_batch", rt.handleCrossBatch))
	rt.mux.HandleFunc("GET /v1/stats", rt.timed("stats", rt.handleStats))
	rt.mux.HandleFunc("POST /v1/datasets", rt.timed("datasets", rt.handleDatasets))
	rt.mux.HandleFunc("POST /v1/build", rt.timed("build", rt.handleBuild))
	rt.mux.HandleFunc("GET /v1/jobs/{id}", rt.timed("job", rt.handleJob))
	rt.mux.Handle("GET /metrics", http.HandlerFunc(rt.handleMetrics))
}

// --- upstream plumbing ---

type upstream struct {
	status      int
	contentType string
	body        []byte
}

// Request classes pick the context deadline in doTarget.
type reqClass int

const (
	classRead reqClass = iota // point/range/batch/stats/list/metrics/jobs
	classMut                  // updates/datasets/build
)

func (rt *Router) timeoutFor(class reqClass) time.Duration {
	if class == classMut {
		return mutationTimeout
	}
	return rt.readTimeout
}

// doMethod sends one request to a specific upstream target, honoring
// its circuit breaker and the request class's deadline. Network errors
// and 5xx answers count against the breaker; everything else closes it.
func (rt *Router) doMethod(ctx context.Context, class reqClass, method, target, pathAndQuery, contentType string, body []byte) (*upstream, error) {
	if !rt.breakers.Allow(target) {
		return nil, fmt.Errorf("%w for %s", errBreakerOpen, target)
	}
	ctx, cancel := context.WithTimeout(ctx, rt.timeoutFor(class))
	defer cancel()
	rt.proxied.Add(1)
	req, err := http.NewRequestWithContext(ctx, method, target+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		rt.breakers.Failure(target)
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	res, err := rt.client.Do(req)
	if err != nil {
		rt.breakers.Failure(target)
		return nil, err
	}
	defer res.Body.Close()
	// One buffer sized from Content-Length (plus the slack ReadFrom wants
	// to see EOF without growing), not io.ReadAll's doubling. A length
	// over the request-body limit is not trusted with a preallocation.
	var buf bytes.Buffer
	if n := res.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(res.Body); err != nil {
		rt.breakers.Failure(target)
		return nil, err
	}
	if res.StatusCode >= 500 {
		rt.breakers.Failure(target)
	} else {
		rt.breakers.Success(target)
	}
	return &upstream{status: res.StatusCode, contentType: res.Header.Get("Content-Type"), body: buf.Bytes()}, nil
}

// readShard sends a read to the shard, retrying replicas when the
// primary is unreachable or failing (network error, open breaker, or
// 5xx). Targets the health checker has marked down are tried last
// instead of skipped — if everything is down, stale verdicts must not
// make the router refuse a request that would have succeeded. 4xx
// answers are returned as-is — they are the shard's verdict, not its
// health.
func (rt *Router) readShard(ctx context.Context, sh *Shard, method, pathAndQuery, contentType string, body []byte) (*upstream, error) {
	targets := make([]string, 0, 1+len(sh.Replicas))
	targets = append(targets, sh.Primary)
	targets = append(targets, sh.Replicas...)
	if rt.health != nil {
		targets = rt.health.orderUp(targets)
	}
	var (
		last    *upstream
		lastErr error
	)
	for i, target := range targets {
		if i > 0 {
			rt.failovers.Add(1)
		}
		resp, err := rt.doMethod(ctx, classRead, method, target, pathAndQuery, contentType, body)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.status >= 500 {
			last, lastErr = resp, nil
			continue
		}
		return resp, nil
	}
	if last != nil {
		return last, nil
	}
	return nil, lastErr
}

func writeUpstream(w http.ResponseWriter, u *upstream) {
	if u.contentType != "" {
		w.Header().Set("Content-Type", u.contentType)
	}
	w.WriteHeader(u.status)
	w.Write(u.body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return b, true
}

// --- handlers ---

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "shards": len(rt.shards())})
}

// handleTopology surfaces the live shard map — roles as of the last
// health-driven swap, not the flags the router started with — plus
// per-target probe state, fence epochs, and the forwarding counters.
func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) {
	topo := rt.topo.Load()
	shards := make([]*Shard, 0, len(topo.shards))
	for _, id := range rt.ring.Shards() {
		shards = append(shards, topo.shards[id])
	}
	out := map[string]any{
		"shards":           shards,
		"topology_version": topo.version,
		"proxied":          rt.proxied.Load(),
		"failovers":        rt.failovers.Load(),
	}
	if rt.health != nil {
		health, fences := rt.health.view()
		out["health"] = health
		out["fences"] = fences
		out["promotions"] = rt.health.promotions.Load()
		out["demotions"] = rt.health.demotions.Load()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleNamedRead proxies a per-name read to the owning shard with
// replica failover.
func (rt *Router) handleNamedRead(w http.ResponseWriter, r *http.Request) {
	sh := rt.Shard(r.PathValue("name"))
	var body []byte
	if r.Method == http.MethodPost {
		var ok bool
		if body, ok = rt.readBody(w, r); !ok {
			return
		}
	}
	resp, err := rt.readShard(r.Context(), sh, r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "shard %q unreachable: %v", sh.ID, err)
		return
	}
	writeUpstream(w, resp)
}

// handleNamedWrite proxies a per-name mutation to the owning shard's
// primary. No failover: replicas reject writes by design, and blindly
// retrying a write elsewhere would fork the lineage.
func (rt *Router) handleNamedWrite(w http.ResponseWriter, r *http.Request) {
	sh := rt.Shard(r.PathValue("name"))
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	resp, err := rt.doMethod(r.Context(), classMut, r.Method, sh.Primary, r.URL.RequestURI(), r.Header.Get("Content-Type"), body)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "shard %q primary unreachable: %v", sh.ID, err)
		return
	}
	writeUpstream(w, resp)
}

// handleList fans GET /v1/hist out to every shard and merges the
// histogram lists. A fully-unreachable shard is reported under its ID
// instead of failing the whole listing — partial visibility beats none.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	type shardList struct {
		RegistryVersion uint64            `json:"registry_version"`
		Histograms      []json.RawMessage `json:"histograms"`
	}
	var (
		mu     sync.Mutex
		merged []json.RawMessage
		per    = map[string]any{}
		wg     sync.WaitGroup
	)
	for id, sh := range rt.shards() {
		wg.Add(1)
		go func(id string, sh *Shard) {
			defer wg.Done()
			resp, err := rt.readShard(r.Context(), sh, http.MethodGet, "/v1/hist", "", nil)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				per[id] = map[string]string{"error": err.Error()}
				return
			}
			var sl shardList
			if resp.status != http.StatusOK || json.Unmarshal(resp.body, &sl) != nil {
				per[id] = map[string]any{"error": fmt.Sprintf("HTTP %d", resp.status)}
				return
			}
			per[id] = map[string]any{"registry_version": sl.RegistryVersion}
			merged = append(merged, sl.Histograms...)
		}(id, sh)
	}
	wg.Wait()
	// Stable output: sort merged entries by their "name" field.
	sort.Slice(merged, func(i, j int) bool {
		var a, b struct {
			Name string `json:"name"`
		}
		json.Unmarshal(merged[i], &a)
		json.Unmarshal(merged[j], &b)
		return a.Name < b.Name
	})
	if merged == nil {
		merged = []json.RawMessage{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"shards": per, "histograms": merged})
}

// handleStats fans GET /v1/stats out and nests each shard's stats under
// its ID, plus the router's own counters.
func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	var (
		mu  sync.Mutex
		per = map[string]any{}
		wg  sync.WaitGroup
	)
	for id, sh := range rt.shards() {
		wg.Add(1)
		go func(id string, sh *Shard) {
			defer wg.Done()
			resp, err := rt.readShard(r.Context(), sh, http.MethodGet, "/v1/stats", "", nil)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				per[id] = map[string]string{"error": err.Error()}
				return
			}
			per[id] = json.RawMessage(resp.body)
		}(id, sh)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, map[string]any{
		"shards": per,
		"router": map[string]uint64{"proxied": rt.proxied.Load(), "failovers": rt.failovers.Load()},
	})
}

// handleDatasets broadcasts dataset creation to every primary so a
// subsequent build can run on whichever shard owns its histogram name.
func (rt *Router) handleDatasets(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	ct := r.Header.Get("Content-Type")
	var (
		mu       sync.Mutex
		firstErr *upstream
		errShard string
		netErr   error
		wg       sync.WaitGroup
	)
	for id, sh := range rt.shards() {
		wg.Add(1)
		go func(id string, sh *Shard) {
			defer wg.Done()
			resp, err := rt.doMethod(r.Context(), classMut, http.MethodPost, sh.Primary, "/v1/datasets", ct, body)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && netErr == nil {
				netErr, errShard = err, id
				return
			}
			if err == nil && resp.status != http.StatusCreated && firstErr == nil {
				firstErr, errShard = resp, id
			}
		}(id, sh)
	}
	wg.Wait()
	if netErr != nil {
		writeErr(w, http.StatusBadGateway, "shard %q primary unreachable: %v", errShard, netErr)
		return
	}
	if firstErr != nil {
		writeUpstream(w, firstErr)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"shards": len(rt.shards())})
}

// handleBuild routes a build to the shard owning the histogram name in
// the request body, tagging the accepted-job response with the shard ID
// so clients know where the job lives.
func (rt *Router) handleBuild(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Name == "" {
		writeErr(w, http.StatusBadRequest, "build request needs a histogram name")
		return
	}
	sh := rt.Shard(req.Name)
	resp, err := rt.doMethod(r.Context(), classMut, http.MethodPost, sh.Primary, "/v1/build", r.Header.Get("Content-Type"), body)
	if err != nil {
		writeErr(w, http.StatusBadGateway, "shard %q primary unreachable: %v", sh.ID, err)
		return
	}
	var accepted map[string]any
	if resp.status == http.StatusAccepted && json.Unmarshal(resp.body, &accepted) == nil {
		accepted["shard"] = sh.ID
		writeJSON(w, http.StatusAccepted, accepted)
		return
	}
	writeUpstream(w, resp)
}

// handleJob resolves a job ID. Shards number their jobs independently
// ("job-1" exists on every shard that has built something), so the
// build response tags the owning shard and clients pass it back as
// ?shard=ID for an exact lookup. Without the tag, every shard is asked
// and the first non-404 answer wins — unambiguous only while job IDs
// happen not to collide.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("shard"); id != "" {
		sh, ok := rt.shards()[id]
		if !ok {
			writeErr(w, http.StatusBadRequest, "unknown shard %q", id)
			return
		}
		resp, err := rt.readShard(r.Context(), sh, http.MethodGet, r.URL.RequestURI(), "", nil)
		if err != nil {
			writeErr(w, http.StatusBadGateway, "shard %q unreachable: %v", id, err)
			return
		}
		writeUpstream(w, resp)
		return
	}
	for _, sh := range rt.shards() {
		resp, err := rt.readShard(r.Context(), sh, http.MethodGet, r.URL.RequestURI(), "", nil)
		if err != nil || resp.status == http.StatusNotFound {
			continue
		}
		writeUpstream(w, resp)
		return
	}
	writeErr(w, http.StatusNotFound, "no shard knows job %q", r.PathValue("id"))
}
