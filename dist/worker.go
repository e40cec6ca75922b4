package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"wavelethist/internal/core"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/obs"
)

// datasetCacheSize bounds how many materialized datasets a worker keeps
// (FIFO eviction) so a long-lived worker serving many datasets doesn't
// grow without bound.
const datasetCacheSize = 4

// defaultLeaseTTL is how long an idle per-job state lease survives before
// the worker garbage-collects it. Multi-round builds refresh the lease on
// every assignment; a coordinator that crashed (or partitioned away — the
// worker-side analogue of a heartbeat timeout) stops refreshing, and the
// orphaned state is dropped rather than pinned forever.
const defaultLeaseTTL = 5 * time.Minute

// Worker executes map assignments: it materializes the dataset named by
// the request's recipe (cached across requests), runs the method's map
// side over the assigned splits — fanned across GOMAXPROCS goroutines by
// core.MapRoundSplits — and returns the encoded partials. Computed partials
// are kept in a fingerprint-keyed LRU (cache.go), so a repeat build of
// the same (dataset, method, params) re-ships them without recomputing;
// the response's Cached field tells the coordinator which splits hit. For
// multi-round methods the worker additionally holds per-job state
// leases — the persisted unsent coefficients H-WTopk's later rounds
// read — released on job completion (coordinator Release RPC) or
// lease-TTL expiry. The same Worker backs the waveworker binary's HTTP
// server and the loopback transport's in-process fleet.
type Worker struct {
	id       string
	capacity int
	sem      chan struct{}
	cache    *partialCache

	mu     sync.Mutex
	files  map[string]*dsEntry
	order  []string
	leases map[string]*jobLease
	ttl    time.Duration // defaultLeaseTTL; tests shorten it

	// Observability (GET /metrics on the waveworker daemon).
	metrics        *obs.Registry
	mapReqs        *obs.Counter
	mapErrs        *obs.Counter
	mapDur         *obs.Histogram
	splitsComputed *obs.Counter
	splitsCached   *obs.Counter
	splitsReplayed *obs.Counter
	wireIn         *obs.Counter
	wireOut        *obs.Counter
}

// jobLease is one job's state plus the bookkeeping expiry runs on.
// active counts in-flight assignments using the lease; the sweep never
// collects a pinned lease (idleness is measured from the last
// completion, and a long map task must not lose its store mid-run).
type jobLease struct {
	state    *core.WorkerState
	created  time.Time
	lastUsed time.Time
	active   int
}

// dsEntry is one cached dataset: a future so materialization happens
// outside the worker lock and concurrent requests for the same spec
// share one generation.
type dsEntry struct {
	ready chan struct{}
	file  *hdfs.File
	err   error
}

// NewWorker creates a worker. capacity bounds concurrently served map
// RPCs (0 = 2).
func NewWorker(id string, capacity int) *Worker {
	if capacity <= 0 {
		capacity = 2
	}
	w := &Worker{
		id:       id,
		capacity: capacity,
		sem:      make(chan struct{}, capacity),
		cache:    newPartialCache(defaultPartialCacheBytes),
		files:    make(map[string]*dsEntry),
		leases:   make(map[string]*jobLease),
		ttl:      defaultLeaseTTL,
	}
	w.initMetrics()
	return w
}

func (w *Worker) initMetrics() {
	m := obs.NewRegistry()
	w.metrics = m
	w.mapReqs = m.Counter("waveworker_map_requests_total", "Map RPCs served (including failed ones).")
	w.mapErrs = m.Counter("waveworker_map_errors_total", "Map RPCs that returned an error.")
	w.mapDur = m.Histogram("waveworker_map_duration_seconds", "Map RPC service time, including capacity queueing.")
	w.splitsComputed = m.Counter("waveworker_splits_total", "Splits served, by how the result was produced.", obs.L("source", "computed"))
	w.splitsCached = m.Counter("waveworker_splits_total", "Splits served, by how the result was produced.", obs.L("source", "cached"))
	w.splitsReplayed = m.Counter("waveworker_replayed_splits_total", "Splits whose earlier rounds were replayed after an ownership change.")
	w.wireIn = m.Counter("waveworker_wire_bytes_total", "Map endpoint payload bytes by direction.", obs.L("dir", "in"))
	w.wireOut = m.Counter("waveworker_wire_bytes_total", "Map endpoint payload bytes by direction.", obs.L("dir", "out"))
	m.Collect(func(mw *obs.Writer) {
		cs := w.CacheStats()
		mw.Counter("waveworker_cache_hits_total", "Partial-cache hits.", float64(cs.Hits))
		mw.Counter("waveworker_cache_misses_total", "Partial-cache misses.", float64(cs.Misses))
		mw.Counter("waveworker_cache_evictions_total", "Partial-cache evictions.", float64(cs.Evictions))
		mw.Gauge("waveworker_cache_entries", "Partials currently cached.", float64(cs.Entries))
		mw.Gauge("waveworker_cache_bytes", "Bytes of cached partials.", float64(cs.Bytes))
		mw.Gauge("waveworker_cache_capacity_bytes", "Partial-cache capacity.", float64(cs.CapacityBytes))
		w.mu.Lock()
		leases, datasets := len(w.leases), len(w.files)
		w.mu.Unlock()
		mw.Gauge("waveworker_leases", "Live per-job state leases.", float64(leases))
		mw.Gauge("waveworker_datasets", "Materialized datasets cached.", float64(datasets))
		mw.Gauge("waveworker_capacity", "Concurrent map RPC bound.", float64(w.capacity))
		mw.Gauge("waveworker_inflight", "Map RPCs currently holding a capacity slot.", float64(len(w.sem)))
	})
}

// Metrics exposes the worker's metrics registry (mounted at GET /metrics
// by Handler; the waveworker daemon adds nothing on top).
func (w *Worker) Metrics() *obs.Registry { return w.metrics }

// CacheStats reports the partial cache's occupancy and hit/miss counters.
func (w *Worker) CacheStats() CacheStatsView { return w.cache.stats() }

// ID returns the worker id.
func (w *Worker) ID() string { return w.id }

// Capacity returns the concurrent-RPC bound.
func (w *Worker) Capacity() int { return w.capacity }

// HandleMap serves one map assignment. Assigned splits whose result is
// already in the partial cache are re-shipped without recomputation (and
// without even materializing the dataset when every split hits); the rest
// are mapped — concurrently, across GOMAXPROCS goroutines — and cached
// for the next build of the same shape.
func (w *Worker) HandleMap(ctx context.Context, req *MapRequest) (*MapResponse, error) {
	t0 := time.Now()
	w.mapReqs.Inc()
	resp, err := w.handleMap(ctx, req)
	w.mapDur.Observe(time.Since(t0))
	if err != nil {
		w.mapErrs.Inc()
		return nil, err
	}
	w.splitsCached.Add(int64(len(resp.Cached)))
	w.splitsReplayed.Add(int64(len(resp.Replayed)))
	w.splitsComputed.Add(int64(len(req.Splits) - len(resp.Cached)))
	return resp, nil
}

func (w *Worker) handleMap(ctx context.Context, req *MapRequest) (*MapResponse, error) {
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if len(req.Splits) == 0 {
		return nil, fmt.Errorf("dist: empty split assignment")
	}
	base := partialCacheKey(req.Dataset.Fingerprint(), req.Method, req.Params, req.Round, req.Broadcast)
	parts := make([]core.SplitPartial, len(req.Splits))
	var cached, missing []int
	missingAt := make(map[int]int, len(req.Splits)) // split id -> slot
	for i, id := range req.Splits {
		if part, ok := w.cache.get(base, id); ok {
			parts[i] = part
			cached = append(cached, id)
		} else {
			missing = append(missing, id)
			missingAt[id] = i
		}
	}
	resp := &MapResponse{JobID: req.JobID, Cached: cached}
	if len(missing) > 0 {
		file, err := w.dataset(req.Dataset)
		if err != nil {
			return nil, err
		}
		// A one-round build's request leaves Round and Rounds unset: its
		// partials are stateless, so it takes no lease (and nothing would
		// release one).
		var state *core.WorkerState
		if req.Rounds > 1 || req.Round > 1 {
			var done func()
			state, done = w.acquireLease(req.JobID)
			defer done()
		}
		var computed []core.SplitPartial
		computed, resp.Replayed, err = core.MapRoundSplits(ctx, file, req.Method, req.Params, max(req.Round, 1), req.Broadcast, missing, state)
		if err != nil {
			return nil, err
		}
		for _, part := range computed {
			parts[missingAt[part.SplitID]] = part
			w.cache.put(base, part.SplitID, part)
		}
	}
	resp.Partials = core.EncodePartials(parts)
	if len(resp.Partials) > maxPartialsPayload {
		// The frame header's length field is a uint32 and decoders cap
		// payloads at maxFramePayload; past that an encoded response
		// would be rejected (or silently wrap) on the coordinator as a
		// corrupt frame. Fail loudly with the actual cause instead —
		// it's deterministic, so the coordinator won't retry it.
		return nil, fmt.Errorf("dist: encoded partials (%d bytes) exceed the %d-byte frame limit; use smaller splits", len(resp.Partials), maxPartialsPayload)
	}
	return resp, nil
}

// acquireLease returns (creating or refreshing) the job's state lease,
// pinned against sweeping until the returned release runs; expired idle
// leases of other jobs are swept while the lock is held.
func (w *Worker) acquireLease(jobID string) (*core.WorkerState, func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	w.sweepLocked(now)
	l, ok := w.leases[jobID]
	if !ok {
		l = &jobLease{state: core.NewWorkerState(), created: now}
		w.leases[jobID] = l
	}
	l.lastUsed = now
	l.active++
	return l.state, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		l.active--
		l.lastUsed = time.Now()
	}
}

// sweepLocked drops unpinned leases idle past the TTL. Caller holds w.mu.
func (w *Worker) sweepLocked(now time.Time) {
	for id, l := range w.leases {
		if l.active <= 0 && now.Sub(l.lastUsed) > w.ttl {
			delete(w.leases, id)
		}
	}
}

// Release drops a job's state lease (the coordinator calls this when a
// multi-round build completes, fails, or is canceled). Reports whether a
// lease existed.
func (w *Worker) Release(jobID string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sweepLocked(time.Now())
	_, ok := w.leases[jobID]
	delete(w.leases, jobID)
	return ok
}

// Leases reports the worker's live state leases, oldest first.
func (w *Worker) Leases() []LeaseView {
	w.mu.Lock()
	defer w.mu.Unlock()
	now := time.Now()
	w.sweepLocked(now)
	out := make([]LeaseView, 0, len(w.leases))
	for id, l := range w.leases {
		out = append(out, LeaseView{
			JobID:      id,
			Entries:    l.state.Entries(),
			Bytes:      l.state.Bytes(),
			AgeMillis:  now.Sub(l.created).Milliseconds(),
			IdleMillis: now.Sub(l.lastUsed).Milliseconds(),
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].AgeMillis != out[b].AgeMillis {
			return out[a].AgeMillis > out[b].AgeMillis
		}
		return out[a].JobID < out[b].JobID
	})
	return out
}

// dataset returns the materialized file for a spec, generating and
// caching it on first use. Generation runs outside w.mu (it can take
// seconds for large datasets) behind a per-fingerprint future, so
// concurrent requests for cached datasets are never stalled and
// concurrent requests for the same new dataset share one generation.
func (w *Worker) dataset(spec DatasetSpec) (*hdfs.File, error) {
	fp := spec.Fingerprint()
	w.mu.Lock()
	e, ok := w.files[fp]
	if !ok {
		e = &dsEntry{ready: make(chan struct{})}
		w.files[fp] = e
		w.order = append(w.order, fp)
		if len(w.order) > datasetCacheSize {
			delete(w.files, w.order[0])
			w.order = w.order[1:]
		}
		w.mu.Unlock()
		e.file, _, e.err = spec.Materialize()
		close(e.ready)
		if e.err != nil {
			// Drop the failed entry so a later request can retry.
			w.mu.Lock()
			if w.files[fp] == e {
				delete(w.files, fp)
				for i, o := range w.order {
					if o == fp {
						w.order = append(w.order[:i], w.order[i+1:]...)
						break
					}
				}
			}
			w.mu.Unlock()
		}
		return e.file, e.err
	}
	w.mu.Unlock()
	<-e.ready
	return e.file, e.err
}

// Handler returns the worker's HTTP surface: POST /dist/v1/map,
// POST /dist/v1/release, GET /dist/v1/state and GET /dist/v1/ping. The
// POST endpoints take binary frames only and answer every outcome,
// errors included, with a frame of the route's response type.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathMap, func(rw http.ResponseWriter, r *http.Request) {
		frame, status, err := readFrame(rw, r, maxMapBody)
		if err != nil {
			writeFrame(rw, status, EncodeMapResponse(&MapResponse{Error: err.Error()}))
			return
		}
		req, err := DecodeMapRequest(frame)
		if err != nil {
			writeFrame(rw, http.StatusBadRequest, EncodeMapResponse(&MapResponse{Error: fmt.Sprintf("bad map request: %v", err)}))
			return
		}
		w.wireIn.Add(int64(len(frame)))
		resp, err := w.HandleMap(r.Context(), req)
		if err != nil {
			resp = &MapResponse{JobID: req.JobID, Error: err.Error()}
		}
		out := EncodeMapResponse(resp)
		w.wireOut.Add(int64(len(out)))
		writeFrame(rw, http.StatusOK, out)
	})
	mux.HandleFunc("POST "+PathRelease, func(rw http.ResponseWriter, r *http.Request) {
		frame, status, err := readFrame(rw, r, maxControlBody)
		if err != nil {
			writeFrame(rw, status, EncodeReleaseResponse(&ReleaseResponse{}))
			return
		}
		req, err := DecodeReleaseRequest(frame)
		if err != nil || req.JobID == "" {
			writeFrame(rw, http.StatusBadRequest, EncodeReleaseResponse(&ReleaseResponse{}))
			return
		}
		writeFrame(rw, http.StatusOK, EncodeReleaseResponse(&ReleaseResponse{OK: true, Released: w.Release(req.JobID)}))
	})
	mux.HandleFunc("GET "+PathState, func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		datasets := len(w.files)
		w.mu.Unlock()
		writeJSON(rw, http.StatusOK, &WorkerStateResponse{
			ID:       w.id,
			Capacity: w.capacity,
			Leases:   w.Leases(),
			Datasets: datasets,
			Cache:    w.CacheStats(),
		})
	})
	mux.HandleFunc("GET "+PathPing, func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, map[string]any{"ok": true, "id": w.id})
	})
	mux.Handle("GET /metrics", w.metrics.Handler())
	return mux
}

// Body limits of the dist POST routes, which read unauthenticated input.
// A map request carries the dataset recipe — for kind "keys" the key list
// itself — and the round's broadcast blob. The largest the test suite
// sends is 3 528 bytes and the benchmark's build_exact 383; 64 MiB is
// four orders of magnitude above both and twice what the serve layer's
// dataset limit admits (4 Mi keys × 8 bytes, before deflate). The
// control messages (release, register, heartbeat) are an id, an address
// and a few scalars.
const (
	maxMapBody     = 64 << 20
	maxControlBody = 64 << 10
)

// readFrame reads a POST body that must be one binary frame of at most
// limit bytes. On failure it returns the status to answer with: 415 for
// any other Content-Type, 413 for an oversize body, 400 for a failed read.
func readFrame(rw http.ResponseWriter, r *http.Request, limit int64) (frame []byte, status int, err error) {
	if r.Header.Get("Content-Type") != ContentTypeBinary {
		return nil, http.StatusUnsupportedMediaType, fmt.Errorf("POST %s takes %s frames", r.URL.Path, ContentTypeBinary)
	}
	frame, err = io.ReadAll(http.MaxBytesReader(rw, r.Body, limit))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", limit)
	case err != nil:
		return nil, http.StatusBadRequest, err
	}
	return frame, http.StatusOK, nil
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(v)
}

func writeFrame(rw http.ResponseWriter, code int, frame []byte) {
	rw.Header().Set("Content-Type", ContentTypeBinary)
	rw.WriteHeader(code)
	rw.Write(frame)
}
