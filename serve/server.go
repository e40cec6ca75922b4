package serve

import (
	"bytes"
	"context"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/internal/obs"
)

// Config tunes a Server. The zero value is usable: an in-memory
// registry. The republish cadence, the batch, body and shedding limits,
// and the dataset, build-concurrency and job-retention limits are
// constants (see maxDatasetRecords).
type Config struct {
	// SnapshotDir persists each published histogram as one entry file,
	// <name>.whst (loaded at startup, written on publish; a maintained
	// name's file holds its maintainer's state). Empty = in-memory only.
	SnapshotDir string
	// Coordinator enables distributed builds: POST /v1/build with
	// "distributed": true fans the build out to the coordinator's worker
	// fleet, and the coordinator's /dist/v1/* endpoints (worker
	// registration, heartbeats, fleet listing) are mounted on the server.
	// Nil keeps every build on the in-process simulated cluster.
	Coordinator *dist.Coordinator
	// ReadOnly starts the server as a read replica: every mutating
	// endpoint (builds, updates, dataset creation) answers 403 until
	// POST /v1/promote flips it writable. The ha.Replica sync loop keeps
	// a read-only server's registry following a primary.
	ReadOnly bool
	// Shard is an informational label ("" = unsharded) reported in
	// /v1/stats and /healthz so operators and the router can tell which
	// shard a process serves.
	Shard string
	// SlowQueryThreshold logs a structured one-line record (op, name,
	// micros, batch size) for every query slower than this, and counts it
	// in wavehist_slow_queries_total. 0 (the default) disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives slow-query lines (nil = log.Default()).
	SlowQueryLog *log.Logger
	// SlowQueryDir additionally appends each slow query as one JSON line
	// to slow-queries.jsonl under this directory (created on first use) —
	// the same pattern as the build tracer's trace dir. Empty disables
	// the structured sink; the log line and counter are unaffected.
	SlowQueryDir string
}

// Limits no embedder tunes: the records and domain one POST /v1/datasets
// may ask for, the build jobs that run at once (a further POST /v1/build
// gets 429), and the job records kept (the oldest finished are pruned).
// republishEvery applied updates trigger an automatic republish of a
// maintained histogram's adapted top-k (clients force one with "flush":
// true); maxBatch bounds queries per batch request and updates per
// update request, maxBodyBytes every request body. Distributed builds
// are shed with 429 + Retry-After while the fleet's pending splits per
// alive worker are at or above maxPendingPerWorker, so a saturated
// fleet queues at the clients, not in the coordinator.
const (
	maxDatasetRecords   = 1 << 22
	maxDatasetDomain    = 1 << 24
	maxConcurrentBuilds = 4
	maxRetainedJobs     = 1024
	republishEvery      = 256
	maxBatch            = 4096
	maxBodyBytes        = 8 << 20
	maxPendingPerWorker = 64
)

// maintained pairs a published name with its live maintainer. The
// maintainer itself is single-writer; mu serializes update batches while
// query traffic keeps hitting the registry's last-published snapshot.
type maintained struct {
	mu      sync.Mutex
	mh      *wavelethist.MaintainedHistogram
	pending int // updates applied since the last republish
	// base is the entry version this maintainer's state derives from
	// (seed or last republish). A republish is allowed only while the
	// registry still holds that version — otherwise a concurrent
	// rebuild has superseded this lineage.
	base uint64
}

// Server is the wavehistd HTTP handler: a registry plus dataset store,
// build-job runner, and the /v1 JSON API.
type Server struct {
	cfg      Config
	reg      *Registry
	jobs     *jobSet
	buildSem chan struct{} // bounds concurrent build goroutines
	mux      *http.ServeMux

	// baseCtx parents every build job's context; Close cancels it so
	// daemon shutdown doesn't strand job goroutines.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	jobWG      sync.WaitGroup

	// readOnly is the replica-mode latch (see Config.ReadOnly, Promote);
	// repl holds the latest sync status a replica follower installed.
	// epoch is the registry epoch (epoch.go); promoteMu serializes
	// promotion/demotion against replication applies (ReplApply) so a
	// role flip never interleaves with a half-applied pull.
	readOnly  atomic.Bool
	repl      atomic.Pointer[ReplStatus]
	epoch     atomic.Uint64
	promoteMu sync.RWMutex

	// Observability plane (metrics.go): the /metrics registry plus the
	// static instruments the job runner and slow-query log record into.
	metrics        *obs.Registry
	buildsDone     *obs.Counter
	buildsFailed   *obs.Counter
	buildsCanceled *obs.Counter
	buildDur       *obs.Histogram
	slowQueries    *obs.Counter
	batchDecoded   func(scanned bool)
	seeds          map[string]*obs.Counter // wavehist_maintainer_seeds_total by source
	slowLog        *slowLogSink            // nil unless Config.SlowQueryDir is set

	mu       sync.Mutex
	datasets map[string]*wavelethist.Dataset
	maints   map[string]*maintained
}

// NewServer builds a Server, loading SnapshotDir if configured.
func NewServer(cfg Config) (*Server, error) {
	var (
		reg *Registry
		err error
	)
	if cfg.SnapshotDir != "" {
		reg, err = OpenRegistry(cfg.SnapshotDir)
		if err != nil {
			return nil, err
		}
	} else {
		reg = NewRegistry()
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        reg,
		jobs:       newJobSet(maxRetainedJobs),
		buildSem:   make(chan struct{}, maxConcurrentBuilds),
		mux:        http.NewServeMux(),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		datasets:   map[string]*wavelethist.Dataset{},
		maints:     map[string]*maintained{},
		seeds:      map[string]*obs.Counter{},
	}
	s.readOnly.Store(cfg.ReadOnly)
	if err := s.initEpoch(); err != nil {
		return nil, err
	}
	if cfg.SlowQueryDir != "" {
		s.slowLog = newSlowLogSink(cfg.SlowQueryDir)
	}
	s.initMetrics()
	s.routes()
	return s, nil
}

// Registry exposes the underlying registry for embedding and tests.
func (s *Server) Registry() *Registry { return s.reg }

// Close cancels all running build jobs and waits for their goroutines to
// drain — call it on daemon shutdown so no job outlives the server.
func (s *Server) Close() {
	s.baseCancel()
	s.jobWG.Wait()
	if s.slowLog != nil {
		s.slowLog.close()
	}
}

// RegisterDataset makes a dataset buildable by name via POST /v1/build.
func (s *Server) RegisterDataset(name string, ds *wavelethist.Dataset) error {
	if err := ValidName(name); err != nil {
		return err
	}
	if ds == nil {
		return fmt.Errorf("serve: nil dataset")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.datasets[name] = ds
	return nil
}

func (s *Server) dataset(name string) (*wavelethist.Dataset, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[name]
	return ds, ok
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/hist", s.handleList)
	s.mux.HandleFunc("GET /v1/hist/{name}/point", s.handleGet("point"))
	s.mux.HandleFunc("GET /v1/hist/{name}/range", s.handleGet("range"))
	s.mux.HandleFunc("POST /v1/hist/{name}/query", s.handleBatch)
	s.mux.HandleFunc("POST /v1/hist/{name}/updates", s.handleUpdates)
	s.mux.HandleFunc("POST /v1/query", s.handleQueryFrame)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /metrics", s.metrics.Handler())
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /v1/datasets", s.handleCreateDataset)
	s.mux.HandleFunc("POST /v1/build", s.handleBuild)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("POST /v1/repl/pull", s.handleReplPull)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	s.mux.HandleFunc("POST /v1/demote", s.handleDemote)
	if s.cfg.Coordinator != nil {
		s.mux.Handle("/dist/v1/", s.cfg.Coordinator.Handler())
	}
}

// --- JSON plumbing ---

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody reads r's body, at most maxBodyBytes, into buf and decodes
// it with decode (a dist scanner with its strict fallback), counting the
// decoder that served it. On an error it writes the 400 and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, decode func([]byte) (bool, error)) bool {
	buf.Reset()
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		var scanned bool
		scanned, err = decode(buf.Bytes())
		s.batchDecoded(scanned)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := dist.DecodeJSONStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) entry(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	name := r.PathValue("name")
	e, ok := s.reg.Lookup(name)
	if !ok {
		writeErr(w, http.StatusNotFound, "%s", noHistogram(name))
		return nil, false
	}
	return e, true
}

func noHistogram(name string) string { return fmt.Sprintf("no histogram %q", name) }

// batchSizeErr is the 400 message for a batch of n queries the server
// will not run ("" = acceptable) — one wording for the JSON endpoint and
// the query-frame groups.
func (s *Server) batchSizeErr(n int) string {
	switch {
	case n == 0:
		return "empty batch"
	case n > maxBatch:
		return fmt.Sprintf("batch of %d exceeds limit %d", n, maxBatch)
	}
	return ""
}

// --- handlers ---

// handleHealth reports liveness plus the fields the router's health
// checker elects and fences on: the registry epoch, role, and — for
// replicas — the primary version applied and the epoch it was synced
// under. One probe answers "alive?", "who are you?" and "how caught up?".
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"ok":        true,
		"version":   s.reg.Version(),
		"epoch":     s.epoch.Load(),
		"read_only": s.readOnly.Load(),
	}
	if s.cfg.Shard != "" {
		out["shard"] = s.cfg.Shard
	}
	if st := s.repl.Load(); st != nil {
		out["applied"] = st.Version
		out["repl_epoch"] = st.Epoch
	}
	writeJSON(w, http.StatusOK, out)
}

// HistInfo describes one published histogram in GET /v1/hist.
type HistInfo struct {
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	Kind    string `json:"kind"` // "1d" | "2d"
	K       int    `json:"k"`
	Domain  int64  `json:"domain"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	names := snap.Names()
	infos := make([]HistInfo, 0, len(names))
	for _, n := range names {
		e, _ := snap.Lookup(n)
		kind := "1d"
		if e.Is2D() {
			kind = "2d"
		}
		infos = append(infos, HistInfo{
			Name: n, Version: e.Version, Kind: kind, K: e.K(), Domain: e.Domain(),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"registry_version": snap.Version(),
		"histograms":       infos,
	})
}

// getForms are the single-query GET forms: each op's parameters, 1D
// then 2D, in the order a 200 body echoes them, and the 400 a form that
// does not parse answers.
var getForms = [...]struct {
	op     string
	twoD   bool
	params []string
	err    error
}{
	{"point", false, []string{"key"}, errors.New("point query needs integer key")},
	{"point", true, []string{"x", "y"}, errors.New("2D point query needs integer x and y")},
	{"range", false, []string{"lo", "hi"}, errors.New("range query needs integer lo and hi")},
	{"range", true, []string{"xlo", "xhi", "ylo", "yhi"}, errors.New("2D range query needs integer xlo, xhi, ylo and yhi")},
}

// GetQuery is one parsed point or range GET: the query it runs and the
// parameters its 200 body echoes.
type GetQuery struct {
	Query  BatchQuery
	fields [4]EstimateField
	n      int
}

// Fields returns the form's parameters and values in echo order.
func (g *GetQuery) Fields() []EstimateField { return g.fields[:g.n] }

// ParseQuery is the one parser of a single-query GET. It reads op's 1D
// form (key, or lo and hi) or, with twoD, its 2D form (x and y, or xlo,
// xhi, ylo and yhi) from vals into a query, ignoring the other form's
// parameters. Every parameter of the form must be an integer, or the
// error names them all. Fields names the form's parameters even then,
// so a caller can tell whether any of them is present. The shard parses
// in its entry's form; the router's coalescer tries both.
func ParseQuery(op string, twoD bool, vals url.Values) (GetQuery, error) {
	var g GetQuery
	for _, f := range &getForms {
		if f.op != op || f.twoD != twoD {
			continue
		}
		var err error
		for i, name := range f.params {
			v, perr := strconv.ParseInt(vals.Get(name), 10, 64)
			if perr != nil {
				err = f.err
			}
			g.fields[i] = EstimateField{name, v}
		}
		g.n = len(f.params)
		v := &g.fields
		switch {
		case op == "point" && !twoD:
			g.Query = BatchQuery{Op: op, Key: v[0].Value}
		case op == "point":
			g.Query = BatchQuery{Op: op, X: v[0].Value, Y: v[1].Value}
		case !twoD:
			g.Query = BatchQuery{Op: op, Lo: v[0].Value, Hi: v[1].Value}
		default:
			g.Query = BatchQuery{Op: op, XLo: v[0].Value, XHi: v[1].Value, YLo: v[2].Value, YHi: v[3].Value}
		}
		return g, err
	}
	return g, fmt.Errorf("unknown op %q (want point or range)", op)
}

// handleGet serves GET /v1/hist/{name}/point and …/range: ParseQuery in
// the entry's form, then the batch loop's per-query estimate, timed
// under the op's own stats (Stats.Point or Stats.Range, not Batch).
func (s *Server) handleGet(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		e, ok := s.entry(w, r)
		if !ok {
			return
		}
		defer func() { s.slowQuery(op, e.Name, 1, 0, time.Since(t0)) }()
		g, err := ParseQuery(op, e.Is2D(), r.URL.Query())
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		stats := &e.Stats.Point
		if op == "range" {
			stats = &e.Stats.Range
		}
		t1 := time.Now()
		est, err := e.estimate(&g.Query)
		stats.Add(1, time.Since(t1))
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeEstimate(w, e.Name, e.Version, est, g.Fields()...)
	}
}

// batchBuffers is one batch or updates request's reusable state: the
// body, the decoded queries or updates, the result slice and the encoded
// reply. Pooled so the steady-state batch path — the server's hottest
// endpoint — re-serves requests out of recycled buffers instead of
// per-request garbage.
type batchBuffers struct {
	body    bytes.Buffer
	in      dist.QueryBatch
	updates dist.UpdateBatch
	results []BatchResult
	reply   []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchBuffers) }}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	bb := batchPool.Get().(*batchBuffers)
	defer batchPool.Put(bb)
	if !s.decodeBody(w, r, &bb.body, func(b []byte) (bool, error) { return bb.in.DecodeJSON(b, false) }) {
		return
	}
	n := len(bb.in.Queries)
	if msg := s.batchSizeErr(n); msg != "" {
		writeErr(w, http.StatusBadRequest, "%s", msg)
		return
	}
	bb.results = slices.Grow(bb.results[:0], n)[:n]
	// One snapshot resolution, one timestamp pair, and zero per-query
	// allocations for the whole batch — the amortization the endpoint
	// exists for. Every sub-query resolves off the entry's shared
	// query index.
	e.Batch(bb.in.Queries, bb.results)
	bb.reply = appendBatchResponse(bb.reply[:0], e.Name, e.Version, bb.results)
	w.Header().Set("Content-Type", "application/json")
	w.Write(bb.reply)
	// A JSON batch is never a coalesced one: the router's coalescer sends
	// query frames, which carry the merged count (queryframe.go).
	s.slowQuery("batch", e.Name, n, 0, time.Since(t0))
}

// KeyUpdate is one insertion/deletion in POST /v1/hist/{name}/updates.
type KeyUpdate = dist.KeyUpdate

// updateReply is the updates endpoint's answer, its fields in name order
// (the order a map would encode them in).
type updateReply struct {
	Applied     int    `json:"applied"`
	Name        string `json:"name"`
	Republished bool   `json:"republished"`
	Tracked     int    `json:"tracked"`
	Version     uint64 `json:"version"`
}

func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if !s.writable(w) {
		return
	}
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	if e.Is2D() {
		writeErr(w, http.StatusBadRequest, "updates are 1D-only")
		return
	}
	bb := batchPool.Get().(*batchBuffers)
	defer batchPool.Put(bb)
	if !s.decodeBody(w, r, &bb.body, bb.updates.DecodeJSON) {
		return
	}
	req := &bb.updates
	if len(req.Updates) > maxBatch {
		writeErr(w, http.StatusBadRequest, "update batch of %d exceeds limit %d", len(req.Updates), maxBatch)
		return
	}
	m, err := s.maintainer(e)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}

	t0 := time.Now()
	m.mu.Lock()
	// Validate against the maintainer's own domain, not the (possibly
	// newer) registry entry's: a concurrent rebuild may have published a
	// different-domain histogram, and keys valid there would panic the
	// old maintainer.
	// A delta past 2^53 in magnitude (or not finite) is refused with the
	// whole batch before any update applies: counts past 2^53 are no
	// longer exact, and two deltas near the float range overflow every
	// estimate over their key.
	dom := m.mh.Domain()
	for i, u := range req.Updates {
		if u.Key < 0 || u.Key >= dom {
			m.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "update key %d outside domain [0, %d)", u.Key, dom)
			return
		}
		if !(math.Abs(u.Delta) <= 1<<53) {
			m.mu.Unlock()
			writeErr(w, http.StatusBadRequest, "update %d (key %d): delta %v is not finite or exceeds 2^53 in magnitude", i, u.Key, u.Delta)
			return
		}
	}
	for _, u := range req.Updates {
		m.mh.Update(u.Key, u.Delta)
	}
	m.pending += len(req.Updates)
	republish := req.Flush || m.pending >= republishEvery
	var (
		version uint64
		tracked = m.mh.Tracked()
	)
	if republish {
		// Publish the adapted top-k atomically; in-flight queries keep
		// the old snapshot, new ones see the fresh coefficients. The
		// entry file is the maintainer's state, so histogram and state
		// land in one write; it is encoded here, under m.mu alone. Under
		// s.mu, verify this maintainer is still the registered one AND
		// its base version still matches the registry — a concurrent
		// rebuild invalidates both, and a stale maintainer must never
		// overwrite a freshly built histogram.
		h := m.mh.Histogram()
		file, err := s.reg.encode(e.Name, m.mh)
		if err != nil {
			m.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, "republish: %v", err)
			return
		}
		s.mu.Lock()
		cur, ok := s.reg.Lookup(e.Name)
		if s.maints[e.Name] != m || !ok || cur.Version != m.base {
			if s.maints[e.Name] == m {
				delete(s.maints, e.Name) // obsolete lineage; reseed next time
			}
			s.mu.Unlock()
			m.mu.Unlock()
			writeErr(w, http.StatusConflict, "histogram %q was rebuilt concurrently; re-send updates", e.Name)
			return
		}
		ne, perr := s.reg.publish(&Entry{Name: e.Name, H: h}, file)
		s.mu.Unlock()
		if perr != nil {
			m.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, "republish: %v", perr)
			return
		}
		version = ne.Version
		m.base = ne.Version
		m.pending = 0
	} else {
		version = s.reg.Version()
	}
	m.mu.Unlock()
	e.Stats.Update.Add(int64(len(req.Updates)), time.Since(t0))
	s.slowQuery("updates", e.Name, len(req.Updates), 0, time.Since(t0))

	writeJSON(w, http.StatusOK, updateReply{
		Applied:     len(req.Updates),
		Name:        e.Name,
		Republished: republish,
		Tracked:     tracked,
		Version:     version,
	})
}

// maintainer returns (creating on first use) the live maintainer for a
// published 1D histogram. The registry entry is re-resolved under s.mu:
// the caller's entry may be stale if a rebuild published (and
// invalidated the old maintainer) between the caller's lookup and this
// call — seeding from it would let a later republish silently overwrite
// the fresh build. An entry installed from a maintainer's state (a
// restart over a maintained name's entry file) hands over that state,
// counted as wavehist_maintainer_seeds_total{source="snapshot"}; any
// other seed is the top-k only, without a shadow set, and is counted as
// source="published".
func (s *Server) maintainer(e *Entry) (*maintained, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.maints[e.Name]; ok {
		return m, nil
	}
	cur, ok := s.reg.Lookup(e.Name)
	if !ok || cur.Is2D() {
		return nil, fmt.Errorf("serve: %q no longer maintainable", e.Name)
	}
	src, mh := "snapshot", cur.seed.Swap(nil)
	if mh == nil {
		var err error
		if mh, err = wavelethist.MaintainHistogram(cur.H, cur.K(), 0); err != nil {
			return nil, err
		}
		src = "published"
	}
	m := &maintained{mh: mh, base: cur.Version}
	s.maints[e.Name] = m
	s.seeds[src].Inc()
	return m, nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	per := make(map[string]any, len(snap.entries))
	for _, n := range snap.Names() {
		e, _ := snap.Lookup(n)
		per[n] = map[string]any{
			"version": e.Version,
			"k":       e.K(),
			"domain":  e.Domain(),
			"stats":   e.Stats.View(),
		}
	}
	out := map[string]any{
		"registry_version": snap.Version(),
		"epoch":            s.epoch.Load(),
		"histograms":       per,
	}
	if s.cfg.Shard != "" {
		out["shard"] = s.cfg.Shard
	}
	// Fleet saturation (queue depth, per-worker in-flight and last-RPC
	// latency) when distributed builds are enabled — the coordinator-side
	// signal for autoscaling and backpressure.
	if s.cfg.Coordinator != nil {
		out["fleet"] = s.cfg.Coordinator.FleetStats()
	}
	// Replication posture: present whenever the server is (or was) a
	// replica, so operators see read-only state and sync lag in one place.
	if st := s.repl.Load(); st != nil || s.readOnly.Load() {
		repl := map[string]any{"read_only": s.readOnly.Load()}
		if st != nil {
			repl["primary"] = st.Primary
			repl["version"] = st.Version
			repl["synced_at"] = st.SyncedAt
			repl["lag_versions"] = st.LagVersions
			repl["epoch"] = st.Epoch
			if st.EpochResets > 0 {
				repl["epoch_resets"] = st.EpochResets
			}
			if !st.LastAttempt.IsZero() {
				repl["last_attempt"] = st.LastAttempt
			}
			if st.Error != "" {
				repl["error"] = st.Error
			}
		}
		out["replication"] = repl
	}
	writeJSON(w, http.StatusOK, out)
}

// DatasetRequest creates a dataset via POST /v1/datasets.
type DatasetRequest struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "zipf" | "worldcup" | "keys"

	// zipf
	Records int64   `json:"records,omitempty"`
	Domain  int64   `json:"domain,omitempty"`
	Alpha   float64 `json:"alpha,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`

	// worldcup
	ClientBits uint `json:"client_bits,omitempty"`
	ObjectBits uint `json:"object_bits,omitempty"`

	// keys
	Keys []int64 `json:"keys,omitempty"`
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	if !s.writable(w) {
		return
	}
	var req DatasetRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := ValidName(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Records > maxDatasetRecords || int64(len(req.Keys)) > maxDatasetRecords {
		writeErr(w, http.StatusBadRequest, "dataset exceeds record limit %d", maxDatasetRecords)
		return
	}
	if req.Domain > maxDatasetDomain {
		writeErr(w, http.StatusBadRequest, "domain exceeds limit %d", maxDatasetDomain)
		return
	}
	var (
		ds  *wavelethist.Dataset
		err error
	)
	switch req.Kind {
	case "zipf":
		ds, err = wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
			Records: req.Records, Domain: req.Domain, Alpha: req.Alpha, Seed: req.Seed,
		})
	case "worldcup":
		ds, err = wavelethist.NewWorldCupDataset(wavelethist.WorldCupOptions{
			Records: req.Records, ClientBits: req.ClientBits,
			ObjectBits: req.ObjectBits, Seed: req.Seed,
		})
	case "keys":
		ds, err = wavelethist.NewDatasetFromKeys(req.Keys, wavelethist.KeysOptions{Domain: req.Domain})
	default:
		writeErr(w, http.StatusBadRequest, "unknown dataset kind %q (want zipf, worldcup or keys)", req.Kind)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.RegisterDataset(req.Name, ds); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"name":    req.Name,
		"records": ds.NumRecords(),
		"domain":  ds.Domain(),
		"splits":  ds.NumSplits(0),
	})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make(map[string]any, len(s.datasets))
	for n, ds := range s.datasets {
		out[n] = map[string]any{
			"records": ds.NumRecords(), "domain": ds.Domain(), "splits": ds.NumSplits(0),
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

// BuildRequest launches an async build via POST /v1/build.
type BuildRequest struct {
	Name    string  `json:"name"`    // histogram name to publish as
	Dataset string  `json:"dataset"` // registered dataset
	Method  string  `json:"method"`  // one of the paper's seven methods
	K       int     `json:"k,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	// Distributed runs the build on the waveworker fleet instead of the
	// simulated cluster (requires a configured coordinator).
	Distributed bool `json:"distributed,omitempty"`
	// Maintain seeds a live maintainer from the built histogram so the
	// updates endpoint keeps it fresh; Shadow sizes its shadow set.
	Maintain bool `json:"maintain,omitempty"`
	Shadow   int  `json:"shadow,omitempty"`
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if !s.writable(w) {
		return
	}
	var req BuildRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := ValidName(req.Name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ds, ok := s.dataset(req.Dataset)
	if !ok {
		writeErr(w, http.StatusNotFound, "no dataset %q", req.Dataset)
		return
	}
	valid := false
	for _, m := range wavelethist.Methods() {
		if string(m) == req.Method {
			valid = true
			break
		}
	}
	if !valid {
		writeErr(w, http.StatusBadRequest, "unknown method %q", req.Method)
		return
	}
	mode := ModeSimulated
	if req.Distributed {
		if s.cfg.Coordinator == nil {
			writeErr(w, http.StatusBadRequest, "distributed builds are not enabled (start wavehistd with -workers or -dist)")
			return
		}
		if retryAfter, shed := s.fleetSaturated(); shed {
			w.Header().Set("Retry-After", retryAfter)
			writeErr(w, http.StatusTooManyRequests,
				"fleet saturated (pending splits per alive worker >= %d); retry later", maxPendingPerWorker)
			return
		}
		mode = ModeDistributed
	}
	select {
	case s.buildSem <- struct{}{}:
	default:
		writeErr(w, http.StatusTooManyRequests, "at build-concurrency limit %d; retry later", maxConcurrentBuilds)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	job := s.jobs.create(req.Name, req.Dataset, req.Method, mode, cancel)
	s.jobWG.Add(1)
	go s.runBuild(ctx, cancel, job, ds, req)
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job":        job.ID,
		"status_url": "/v1/jobs/" + job.ID,
	})
}

// fleetSaturated applies the distributed-build admission check: shed when
// the queue depth per alive worker reaches maxPendingPerWorker. The
// Retry-After hint scales with how deep the backlog already is, capped so
// clients re-probe within a minute. Called only with a Coordinator.
func (s *Server) fleetSaturated() (retryAfter string, shed bool) {
	fs := s.cfg.Coordinator.FleetStats()
	if fs.AliveWorkers == 0 {
		// No workers at all is reported by the build itself (or the
		// fleet is mid-registration); shedding here would mask the
		// clearer error.
		return "", false
	}
	perWorker := fs.PendingSplits / fs.AliveWorkers
	if perWorker < maxPendingPerWorker {
		return "", false
	}
	return strconv.Itoa(min(perWorker/maxPendingPerWorker, 60)), true
}

func (s *Server) runBuild(ctx context.Context, cancel context.CancelFunc, job *Job, ds *wavelethist.Dataset, req BuildRequest) {
	defer s.jobWG.Done()
	defer cancel()
	defer func() { <-s.buildSem }()
	t0 := time.Now()
	defer func() { s.buildDur.Observe(time.Since(t0)) }()
	opts := wavelethist.Options{K: req.K, Epsilon: req.Epsilon, Seed: req.Seed}
	var (
		res *wavelethist.Result
		err error
	)
	if req.Distributed {
		// The sink learns the coordinator-assigned build ID as soon as it
		// exists, so GET /v1/jobs/{id}/trace works while the build runs.
		bctx := dist.WithJobIDSink(ctx, func(distID string) { s.jobs.setDistJobID(job, distID) })
		res, err = wavelethist.BuildDistributed(bctx, ds, wavelethist.Method(req.Method), opts, s.cfg.Coordinator)
	} else {
		res, err = wavelethist.BuildContext(ctx, ds, wavelethist.Method(req.Method), opts)
	}
	if err != nil {
		if s.jobs.fail(job, err) == JobCanceled {
			s.buildsCanceled.Inc()
		} else {
			s.buildsFailed.Inc()
		}
		return
	}
	// A fresh build supersedes any maintainer state accumulated against
	// the previous version of this name. Deregister BEFORE publishing:
	// handleUpdates republishes only while its maintainer is still
	// registered (checked under s.mu), so this ordering ensures any
	// racing stale republish lands before — never after — the build's
	// publish below.
	s.mu.Lock()
	delete(s.maints, req.Name)
	s.mu.Unlock()
	// A maintained build's entry file is its maintainer's state.
	var (
		mh    *wavelethist.MaintainedHistogram
		state encoding.BinaryMarshaler = res.Histogram
	)
	if req.Maintain {
		if mh, err = wavelethist.MaintainHistogram(res.Histogram, res.Histogram.K(), req.Shadow); err != nil {
			s.jobs.fail(job, fmt.Errorf("maintainer setup failed: %w", err))
			s.buildsFailed.Inc()
			return
		}
		state = mh
	}
	e, err := s.reg.publishAs(&Entry{Name: req.Name, H: res.Histogram}, state)
	if err != nil {
		s.jobs.fail(job, err)
		s.buildsFailed.Inc()
		return
	}
	if mh != nil {
		s.mu.Lock()
		s.maints[req.Name] = &maintained{mh: mh, base: e.Version}
		s.mu.Unlock()
		s.seeds["build"].Inc()
	}
	s.buildsDone.Inc() // before finish: a waiter on the job sees it counted
	s.jobs.finish(job, e, res.Histogram.K(), res)
}

// handleJobTrace serves the distributed build's span trace for a serve
// job: the coordinator records one span per split-batch RPC (worker,
// timing, wire bytes, cached/replayed splits, retry flag),
// live while the build runs and retained after it finishes. Simulated
// builds have no fan-out and therefore no trace.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	view := s.jobs.view(j)
	if view.Mode != ModeDistributed {
		writeErr(w, http.StatusNotFound, "job %q is %s; traces are recorded for distributed builds only", id, view.Mode)
		return
	}
	if s.cfg.Coordinator == nil {
		writeErr(w, http.StatusNotFound, "no coordinator configured")
		return
	}
	distID := s.jobs.distJobID(j)
	if distID == "" {
		writeErr(w, http.StatusNotFound, "job %q has not fanned out yet; retry shortly", id)
		return
	}
	tv, ok := s.cfg.Coordinator.Trace(distID)
	if !ok {
		writeErr(w, http.StatusNotFound, "trace for job %q (build %s) has been evicted", id, distID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": j.ID, "trace": tv})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.view(j))
}

// handleCancelJob cancels a running build: its context is canceled and
// the build goroutine moves it to "canceled" once it unwinds. Canceling
// an already-finished job is a no-op that reports the final state.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	canceling := s.jobs.requestCancel(j)
	writeJSON(w, http.StatusOK, map[string]any{
		"job":       j.ID,
		"canceling": canceling,
		"state":     s.jobs.view(j).State,
	})
}
