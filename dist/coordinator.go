package dist

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavelethist/internal/core"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/obs"
)

// Config tunes a Coordinator. The zero value is usable; the fleet's
// limits are constants (below).
type Config struct {
	// TraceDir, when non-empty, dumps every finished build's span trace
	// as JSONL (<jobID>.jsonl) — the durable form of GET /dist/v1/trace.
	// Best-effort: a failed dump never fails the build.
	TraceDir string
}

// Fleet limits. At most maxInFlight map RPCs run at once across the
// fleet, one map RPC may take at most rpcTimeout, and one carries at most
// splitsPerCall splits. Registering workers are told to heartbeat every
// heartbeatEvery; a worker at any address but a loopback:// one (the
// in-process fleet, which does not heartbeat) is dead after
// heartbeatTimeout without a heartbeat or a successful RPC, and any
// worker is dead after maxWorkerFailures failed RPCs in a row. A split is
// re-assigned at most maxRetries times per round before the build fails;
// the budget outlives a dying worker, which stays dispatchable until its
// maxWorkerFailures-th failure and so can burn that many of a split's
// retries first.
const (
	maxInFlight       = 16
	rpcTimeout        = 5 * time.Minute
	splitsPerCall     = 4
	heartbeatEvery    = 3 * time.Second
	heartbeatTimeout  = 15 * time.Second
	maxWorkerFailures = 2
	maxRetries        = maxWorkerFailures + 1
)

// rpcEWMAAlpha weights the newest map-RPC latency sample in the
// per-worker EWMA: high enough to track load shifts within a few RPCs,
// low enough that one slow split doesn't look like a saturated worker the
// way the old last-sample-wins signal did.
const rpcEWMAAlpha = 0.2

// WorkerInfo describes one registered worker.
type WorkerInfo struct {
	ID       string    `json:"id"`
	Addr     string    `json:"addr"`
	Capacity int       `json:"capacity"`
	InFlight int       `json:"in_flight"`
	Alive    bool      `json:"alive"`
	LastSeen time.Time `json:"last_seen"`
	// RPCEWMAMillis is an exponentially weighted moving average of the
	// worker's completed map-RPC latencies (0 until one completes) — the
	// saturation signal /v1/stats surfaces per worker.
	RPCEWMAMillis float64 `json:"rpc_ewma_millis,omitempty"`
}

type workerState struct {
	id       string
	addr     string
	capacity int
	inflight int
	failures int
	dead     bool
	lastSeen time.Time
	ewmaRPC  float64 // milliseconds
}

// RoundStats is one round's execution profile within a build.
type RoundStats struct {
	Round int `json:"round"`
	// WireBytes is the measured request+response payload of the round's
	// map RPCs (including failed requests).
	WireBytes int64 `json:"wire_bytes"`
	// BroadcastBytes is the wire size of the coordinator's broadcast blob
	// shipped inside each of the round's requests (0 in round 1).
	BroadcastBytes int64 `json:"broadcast_bytes,omitempty"`
	RPCs           int   `json:"rpcs"`
	Retries        int   `json:"retries"`
	// ReplayedSplits counts splits whose new owner had to replay earlier
	// rounds after the original owner's death or lease loss.
	ReplayedSplits int `json:"replayed_splits,omitempty"`
	// CachedSplits counts splits served from workers' partial caches —
	// re-shipped without recomputation.
	CachedSplits int `json:"cached_splits,omitempty"`
}

// BuildStats reports a distributed build's execution profile.
type BuildStats struct {
	// WireBytes is the real communication: measured request + response
	// payload bytes of all map RPCs (including failed ones' requests).
	WireBytes int64
	// RPCs counts completed map RPCs; Retries counts split
	// re-assignments after worker failures.
	RPCs    int
	Retries int
	// WorkersUsed is how many distinct workers returned at least one
	// partial; WorkerFailures counts failed RPCs.
	WorkersUsed    int
	WorkerFailures int
	// Splits is the number of input splits processed (per round).
	Splits int
	// Rounds is the protocol's round count (1, or 3 for H-WTopk).
	Rounds int
	// CachedSplits counts split results served from workers' partial
	// caches across all rounds (a fully warm one-round build has
	// CachedSplits == Splits and recomputed nothing).
	CachedSplits int
	// PerRound profiles each round (one entry per completed round).
	PerRound []RoundStats
	// CandidateSetSize is |R| — the candidate set broadcast before
	// H-WTopk's round 3 (0 for one-round methods).
	CandidateSetSize int
	// JobID is the coordinator-assigned build identifier ("build-…"),
	// the key for GET /dist/v1/trace/{id}.
	JobID string
}

// buildTrack is the live progress of one in-flight build, read by
// FleetStats without touching the build's goroutine.
type buildTrack struct {
	jobID    string
	rounds   int32
	round    atomic.Int32
	pending  atomic.Int32
	inflight atomic.Int32
}

// BuildProgress is one active build's queue depth in FleetStats.
type BuildProgress struct {
	JobID         string `json:"job_id"`
	Round         int    `json:"round"`
	Rounds        int    `json:"rounds"`
	PendingSplits int    `json:"pending_splits"`
	InFlightRPCs  int    `json:"in_flight_rpcs"`
}

// FleetStats is the coordinator's saturation snapshot: build queue depth
// plus per-worker load — the first slice of autoscaling/backpressure.
type FleetStats struct {
	ActiveBuilds  int             `json:"active_builds"`
	PendingSplits int             `json:"pending_splits"`
	InFlightRPCs  int             `json:"in_flight_rpcs"`
	AliveWorkers  int             `json:"alive_workers"`
	Builds        []BuildProgress `json:"builds,omitempty"`
	Workers       []WorkerInfo    `json:"workers"`
	// CachedSplitsTotal counts split results served from workers'
	// partial caches across this coordinator's lifetime.
	CachedSplitsTotal int64 `json:"cached_splits_total"`
}

// Coordinator owns the worker fleet and runs distributed builds.
type Coordinator struct {
	cfg      Config
	tr       Transport
	instance string

	mu      sync.Mutex
	workers map[string]*workerState
	jobSeq  int
	builds  map[string]*buildTrack

	// cachedSplits accumulates partial-cache hits across builds
	// (FleetStats.CachedSplitsTotal).
	cachedSplits atomic.Int64

	// traces retains span traces for recent builds (GET /dist/v1/trace).
	traces traceStore

	// Lifetime observability totals, exposed by Collect as
	// wavehist_dist_* metric families.
	buildsStarted obs.Counter
	buildsDone    obs.Counter
	buildsFailed  obs.Counter
	rpcsTotal     obs.Counter
	retriesTotal  obs.Counter
	failuresTotal obs.Counter
	wireBytes     obs.Counter
	bcastBytes    obs.Counter
	roundDur      obs.Histogram
	rpcDur        obs.Histogram

	// affinity remembers, per build shape (dataset fingerprint, method,
	// params), which worker served each split — seeded into the next
	// build of the same shape so repeat builds land splits on the worker
	// whose partial cache holds them. Bounded FIFO.
	affMu    sync.Mutex
	affinity map[string][]string
	affOrder []string
}

// affinityKeys bounds the affinity map (one entry per distinct build
// shape; each holds one worker id per split).
const affinityKeys = 128

// affinityOwners returns the remembered split→worker map for a build
// shape (and whether one existed), or a fresh one of length m.
func (c *Coordinator) affinityOwners(key string, m int) ([]string, bool) {
	c.affMu.Lock()
	defer c.affMu.Unlock()
	if prev, ok := c.affinity[key]; ok && len(prev) == m {
		owners := make([]string, m)
		copy(owners, prev)
		return owners, true
	}
	return make([]string, m), false
}

// storeAffinity remembers a finished build's split→worker map. A repeat
// build that got ZERO cache hits despite being routed by affinity proves
// the owners' caches are cold (evicted, or the worker restarted) — the
// entry is dropped instead, so the next build load-balances freely
// rather than staying pinned to cold owners.
func (c *Coordinator) storeAffinity(key string, owners []string, seeded bool, cacheHits int) {
	c.affMu.Lock()
	defer c.affMu.Unlock()
	if seeded && cacheHits == 0 {
		if _, ok := c.affinity[key]; ok {
			delete(c.affinity, key)
			for i, o := range c.affOrder {
				if o == key {
					c.affOrder = append(c.affOrder[:i], c.affOrder[i+1:]...)
					break
				}
			}
		}
		return
	}
	if c.affinity == nil {
		c.affinity = make(map[string][]string)
	}
	if _, ok := c.affinity[key]; !ok {
		c.affOrder = append(c.affOrder, key)
		for len(c.affOrder) > affinityKeys {
			delete(c.affinity, c.affOrder[0])
			c.affOrder = c.affOrder[1:]
		}
	}
	cp := make([]string, len(owners))
	copy(cp, owners)
	c.affinity[key] = cp
}

// NewCoordinator creates a coordinator dispatching over tr.
func NewCoordinator(tr Transport, cfg Config) *Coordinator {
	// The instance token namespaces job IDs across coordinator restarts
	// and shared fleets: a collision would let a worker resurrect another
	// job's state lease instead of replaying, so it must be unguessably
	// unique, not clock-derived.
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		binary.LittleEndian.PutUint64(buf[:], uint64(time.Now().UnixNano())^uint64(os.Getpid())<<32)
	}
	return &Coordinator{
		cfg:      cfg,
		tr:       tr,
		instance: hex.EncodeToString(buf[:]),
		workers:  make(map[string]*workerState),
		builds:   make(map[string]*buildTrack),
	}
}

// Register adds (or refreshes) a worker. capacity <= 0 defaults to 1.
func (c *Coordinator) Register(id, addr string, capacity int) {
	if capacity <= 0 {
		capacity = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		w = &workerState{id: id}
		c.workers[id] = w
	}
	w.addr = addr
	w.capacity = capacity
	w.dead = false
	w.failures = 0
	w.lastSeen = time.Now()
}

// Heartbeat refreshes a worker's liveness; false means the coordinator
// does not know the worker (it should re-register).
func (c *Coordinator) Heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	w.lastSeen = time.Now()
	if w.dead {
		// A heartbeat from a worker marked dead means it recovered (or
		// the failures were transient); give it another chance.
		w.dead = false
		w.failures = 0
	}
	return true
}

// alive reports liveness under c.mu.
func (c *Coordinator) alive(w *workerState, now time.Time) bool {
	if w.dead {
		return false
	}
	return strings.HasPrefix(w.addr, LoopbackScheme) || now.Sub(w.lastSeen) <= heartbeatTimeout
}

// Workers lists the fleet, alive first then by id.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerInfo{
			ID: w.id, Addr: w.addr, Capacity: w.capacity,
			InFlight: w.inflight, Alive: c.alive(w, now), LastSeen: w.lastSeen,
			RPCEWMAMillis: w.ewmaRPC,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Alive != out[b].Alive {
			return out[a].Alive
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// AliveWorkers counts currently live workers.
func (c *Coordinator) AliveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	n := 0
	for _, w := range c.workers {
		if c.alive(w, now) {
			n++
		}
	}
	return n
}

// WaitForWorkers blocks until at least n workers are alive or ctx ends.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	for {
		if c.AliveWorkers() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("dist: waiting for %d workers (%d alive): %w", n, c.AliveWorkers(), ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// FleetStats snapshots fleet saturation: active builds with their queue
// depth, total pending splits, and per-worker in-flight + latency.
func (c *Coordinator) FleetStats() FleetStats {
	c.mu.Lock()
	tracks := make([]*buildTrack, 0, len(c.builds))
	for _, t := range c.builds {
		tracks = append(tracks, t)
	}
	c.mu.Unlock()
	fs := FleetStats{Workers: c.Workers(), CachedSplitsTotal: c.cachedSplits.Load()}
	for _, w := range fs.Workers {
		fs.InFlightRPCs += w.InFlight
		if w.Alive {
			fs.AliveWorkers++
		}
	}
	for _, t := range tracks {
		bp := BuildProgress{
			JobID:         t.jobID,
			Round:         int(t.round.Load()),
			Rounds:        int(t.rounds),
			PendingSplits: int(t.pending.Load()),
			InFlightRPCs:  int(t.inflight.Load()),
		}
		fs.Builds = append(fs.Builds, bp)
		fs.PendingSplits += bp.PendingSplits
	}
	sort.Slice(fs.Builds, func(a, b int) bool { return fs.Builds[a].JobID < fs.Builds[b].JobID })
	fs.ActiveBuilds = len(fs.Builds)
	return fs
}

// RPC outcomes for release: success absolves past failures, failure
// counts toward death, neutral (a build-side abort, not a worker fault)
// only frees the slot.
type rpcOutcome int

const (
	relOK rpcOutcome = iota
	relFailed
	relNeutral
)

func (c *Coordinator) release(w *workerState, outcome rpcOutcome, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.inflight--
	if latency > 0 {
		sample := float64(latency.Nanoseconds()) / 1e6
		if w.ewmaRPC == 0 {
			w.ewmaRPC = sample
		} else {
			w.ewmaRPC = rpcEWMAAlpha*sample + (1-rpcEWMAAlpha)*w.ewmaRPC
		}
	}
	switch outcome {
	case relOK:
		w.failures = 0
		w.lastSeen = time.Now()
	case relFailed:
		c.failuresTotal.Inc()
		w.failures++
		if w.failures >= maxWorkerFailures {
			w.dead = true
		}
	}
}

type rpcResult struct {
	w       *workerState
	splits  []int
	resp    *MapResponse
	reqB    int64
	respB   int64
	latency time.Duration
	err     error
}

func (c *Coordinator) newJobID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jobSeq++
	return fmt.Sprintf("build-%s-%d", c.instance, c.jobSeq)
}

func (c *Coordinator) trackBuild(jobID string, rounds int) *buildTrack {
	t := &buildTrack{jobID: jobID, rounds: int32(rounds)}
	c.mu.Lock()
	c.builds[jobID] = t
	c.mu.Unlock()
	return t
}

func (c *Coordinator) untrackBuild(jobID string) {
	c.mu.Lock()
	delete(c.builds, jobID)
	c.mu.Unlock()
}

// Build runs one distributed 1D build; it is bit-identical to a
// single-process run of the same method, params and seed.
func (c *Coordinator) Build(ctx context.Context, spec DatasetSpec, file *hdfs.File, method string, p core.Params) (*core.Output, *BuildStats, error) {
	plan, stats, err := c.runPlan(ctx, spec, file, method, p, 1)
	if err != nil {
		return nil, stats, err
	}
	out, err := plan.Output()
	return out, stats, err
}

// Build2D is Build for the 2D methods.
func (c *Coordinator) Build2D(ctx context.Context, spec DatasetSpec, file *hdfs.File, method string, p core.Params) (*core.Output2D, *BuildStats, error) {
	plan, stats, err := c.runPlan(ctx, spec, file, method, p, 2)
	if err != nil {
		return nil, stats, err
	}
	out, err := plan.Output2D()
	return out, stats, err
}

// runPlan runs every distributed build through the plan's one round loop
// (RoundPlan.Run) with the fleet side, which fans round r out, delivers
// its partials to the plan's reduce on the coordinator and is then asked
// for round r+1 — once for a one-round method, three times for H-WTopk.
// A coordinator that dies mid-build fails the build; the client's retry
// is bit-identical, and the surviving workers' partial caches serve the
// splits they already mapped. Splits prefer the worker that served them
// in the last build of the same shape (its partial cache holds their
// results, so repeat builds re-ship instead of recomputing) and then
// stick to the worker that ran them in earlier rounds (it holds their
// state); splits whose owner died are re-assigned, and the new owner
// replays the earlier rounds locally. What only a multi-round build has —
// worker state leases, released on every exit path — is skipped for one
// round, so a one-round build is a single fan-out and nothing else.
func (c *Coordinator) runPlan(ctx context.Context, spec DatasetSpec, file *hdfs.File, method string, p core.Params, dim int) (_ *core.RoundPlan, _ *BuildStats, retErr error) {
	if file == nil {
		return nil, nil, fmt.Errorf("dist: nil file")
	}
	plan, err := core.NewRoundPlan(file, method, p)
	if err != nil {
		return nil, nil, err
	}
	if err := plan.WantDim(dim); err != nil {
		return nil, nil, err
	}
	m, rounds := plan.NumSplits(), plan.NumRounds()
	jobID := c.newJobID()
	notifyJobID(ctx, jobID)
	stats := &BuildStats{Splits: m, Rounds: rounds, JobID: jobID}
	track := c.trackBuild(jobID, rounds)
	defer c.untrackBuild(jobID)
	c.beginTrace(jobID, method, m, rounds)
	c.buildsStarted.Inc()
	defer func() {
		c.endTrace(jobID, retErr)
		if retErr != nil {
			c.buildsFailed.Inc()
		} else {
			c.buildsDone.Inc()
		}
	}()

	// Seed round-1 stickiness from the last build of the same shape: the
	// prior owner's cache holds every round's partials, so a repeat build
	// hits in all rounds; within a build, ownership then follows the
	// round barrier's state-lease stickiness.
	affKey := partialCacheKey(spec.Fingerprint(), method, p, 0, nil)
	owners, seeded := c.affinityOwners(affKey, m)
	touched := make(map[string]string)
	responded := make(map[string]bool)
	tmpl := MapRequest{JobID: jobID, Method: method, Params: p, Dataset: spec}
	if rounds > 1 {
		tmpl.Rounds = rounds
		defer func() { c.releaseLeases(jobID, touched) }()
	}
	if err := plan.Run(ctx, rounds, c.fleetSide(tmpl, owners, track, touched, responded, stats)); err != nil {
		return nil, stats, err
	}
	// Remember ownership only for builds that completed every round: a
	// canceled or failed build has zero (or partial) hits for reasons
	// other than cold caches, and must neither drop a valid entry nor
	// overwrite a complete map with a partially-filled one.
	c.storeAffinity(affKey, owners, seeded, stats.CachedSplits)
	stats.WorkersUsed = len(responded)
	stats.CandidateSetSize = plan.Candidates()
	return plan, stats, nil
}

// releaseLeases tells every live worker this job touched to drop its
// state lease. Best-effort and concurrent; workers the coordinator
// already knows are dead are skipped rather than dialed — a crashed or
// partitioned worker would only stall the build's return here, and its
// lease expires via the worker-side TTL anyway.
func (c *Coordinator) releaseLeases(jobID string, touched map[string]string) {
	c.mu.Lock()
	now := time.Now()
	addrs := make([]string, 0, len(touched))
	for id, addr := range touched {
		if w := c.workers[id]; w != nil && c.alive(w, now) {
			addrs = append(addrs, addr)
		}
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, addr := range addrs {
		addr := addr
		wg.Add(1)
		go func() {
			defer wg.Done()
			rctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			_ = c.tr.Release(rctx, addr, &ReleaseRequest{JobID: jobID})
		}()
	}
	wg.Wait()
}

// fleetSide is the map side on the worker fleet. Each round's splits fan
// out as batched map RPCs — every request is tmpl plus its splits, and
// from round 2 on the round and its broadcast — re-assigned on worker
// failure, and each response's partials are delivered as it arrives. A
// response that does not decode, does not cover its batch or that deliver
// refuses is a worker fault: its splits are re-assigned under maxRetries,
// never delivered twice.
//
// owners is the split→worker stickiness map: for multi-round builds it
// tracks which worker holds each split's state lease; for one-round
// builds it is seeded from cross-build cache affinity (the worker whose
// partial cache holds the split). It is updated with whoever actually
// served each split. Splits wait for a live-but-busy owner rather than
// spilling: for multi-round state a non-owner must replay, and for cache
// affinity a spill turns a cheap hit into a recompute. The pathological
// pin — every split owned by one worker whose cache turns out cold — is
// healed by the zero-hit affinity drop in runPlan, not by spilling here.
// touched and responded collect the workers the build dialed and the ones
// that answered.
func (c *Coordinator) fleetSide(tmpl MapRequest, owners []string, track *buildTrack, touched map[string]string, responded map[string]bool, stats *BuildStats) core.MapSide {
	return func(ctx context.Context, round int, bcast []byte, deliver func([]core.SplitPartial) error) error {
		track.round.Store(int32(round))
		roundStart := time.Now()
		defer func() { c.roundDur.Observe(time.Since(roundStart)) }()
		m := len(owners)
		pending := make([]int, m)
		for i := range pending {
			pending[i] = i
		}
		retries := make([]int, m)
		var lastErr error // the last worker fault, for when no worker is left
		remaining := m
		inflight := 0
		rstats := RoundStats{Round: round, BroadcastBytes: int64(len(bcast))}
		c.bcastBytes.Add(int64(len(bcast)))
		results := make(chan rpcResult, maxInFlight)
		retry := time.NewTicker(25 * time.Millisecond)
		defer retry.Stop()

		updateTrack := func() {
			track.pending.Store(int32(len(pending)))
			track.inflight.Store(int32(inflight))
		}

		dispatch := func(w *workerState, batch []int) {
			req := tmpl
			req.Splits = batch
			if req.Rounds > 1 {
				req.Round, req.Broadcast = round, bcast
			}
			rctx, cancel := context.WithTimeout(ctx, rpcTimeout)
			defer cancel()
			t0 := time.Now()
			resp, reqB, respB, err := c.tr.MapSplits(rctx, w.addr, &req)
			results <- rpcResult{w: w, splits: batch, resp: resp, reqB: reqB, respB: respB, latency: time.Since(t0), err: err}
		}

		// pick selects the next (worker, batch) under c.mu: splits stick to
		// the live worker that owns their state from earlier rounds; splits
		// with a dead or unset owner go to the least-loaded live worker.
		// Splits whose owner is alive but at capacity wait for it — stealing
		// them would force a replay the owner can avoid by just finishing.
		pick := func() (*workerState, []int) {
			c.mu.Lock()
			defer c.mu.Unlock()
			now := time.Now()
			take := func(w *workerState, ids []int) (*workerState, []int) {
				n := min(splitsPerCall, len(ids))
				batch := append([]int(nil), ids[:n]...)
				inBatch := make(map[int]bool, n)
				for _, id := range batch {
					inBatch[id] = true
				}
				keep := pending[:0]
				for _, id := range pending {
					if !inBatch[id] {
						keep = append(keep, id)
					}
				}
				pending = keep
				w.inflight++
				return w, batch
			}
			byOwner := make(map[string][]int)
			for _, id := range pending {
				o := owners[id]
				if o == "" {
					continue
				}
				if w := c.workers[o]; w != nil && c.alive(w, now) {
					byOwner[o] = append(byOwner[o], id)
				}
			}
			ownerIDs := make([]string, 0, len(byOwner))
			for o := range byOwner {
				ownerIDs = append(ownerIDs, o)
			}
			sort.Strings(ownerIDs)
			for _, o := range ownerIDs {
				if w := c.workers[o]; w.inflight < w.capacity {
					return take(w, byOwner[o])
				}
			}
			var free []int
			for _, id := range pending {
				if o := owners[id]; o != "" {
					if w := c.workers[o]; w != nil && c.alive(w, now) {
						continue // owned by a live (busy) worker: wait for it
					}
				}
				free = append(free, id)
			}
			if len(free) == 0 {
				return nil, nil
			}
			var best *workerState
			for _, w := range c.workers {
				if !c.alive(w, now) || w.inflight >= w.capacity {
					continue
				}
				if best == nil || w.inflight < best.inflight || (w.inflight == best.inflight && w.id < best.id) {
					best = w
				}
			}
			if best == nil {
				return nil, nil
			}
			return take(best, free)
		}

		requeue := func(splits []int) error {
			for _, id := range splits {
				retries[id]++
				stats.Retries++
				rstats.Retries++
				c.retriesTotal.Inc()
				if retries[id] > maxRetries {
					return fmt.Errorf("dist: round %d: split %d failed %d times; giving up", round, id, retries[id])
				}
				pending = append(pending, id)
			}
			return nil
		}

		// drain releases the worker slots of RPCs still in flight when the
		// round returns early — the Coordinator and its workerStates outlive
		// this build, so abandoning the results channel would leak inflight
		// counts and permanently shrink fleet capacity. The results channel
		// is buffered to maxInFlight, so the dispatch goroutines never block.
		drain := func(n int) {
			if n <= 0 {
				return
			}
			go func() {
				for i := 0; i < n; i++ {
					r := <-results
					outcome := relOK
					if r.err != nil {
						// Don't blame workers for our own cancellation.
						outcome = relFailed
						if ctx.Err() != nil {
							outcome = relNeutral
						}
					}
					c.release(r.w, outcome, r.latency)
				}
			}()
		}
		finish := func(err error) error {
			drain(inflight)
			updateTrack()
			return err
		}

		for remaining > 0 {
			// Dispatch as much as fleet capacity and the in-flight bound allow.
			for inflight < maxInFlight {
				w, batch := pick()
				if w == nil {
					break
				}
				touched[w.id] = w.addr
				inflight++
				go dispatch(w, batch)
			}
			updateTrack()
			if inflight == 0 && len(pending) > 0 && c.AliveWorkers() == 0 {
				return fmt.Errorf("dist: no alive workers (%d splits unassigned in round %d; last worker error: %v)", len(pending), round, lastErr)
			}

			select {
			case r := <-results:
				inflight--
				stats.WireBytes += r.reqB + r.respB
				rstats.WireBytes += r.reqB + r.respB
				c.wireBytes.Add(r.reqB + r.respB)
				c.rpcDur.Observe(r.latency)
				// One span per split-batch RPC, whatever its outcome. Retry
				// marks a batch carrying at least one re-dispatched split.
				span := Span{
					Round:           round,
					Worker:          r.w.id,
					Splits:          append([]int(nil), r.splits...),
					StartUnixMicros: time.Now().Add(-r.latency).UnixMicro(),
					DurMicros:       r.latency.Microseconds(),
					WireBytes:       r.reqB + r.respB,
				}
				for _, id := range r.splits {
					if retries[id] > 0 {
						span.Retry = true
						break
					}
				}
				fail := func(err error) error {
					lastErr = err
					stats.WorkerFailures++
					c.release(r.w, relFailed, r.latency)
					// Orphan the failed splits this worker owned: a failed RPC
					// makes its state suspect, and keeping them sticky would
					// burn every per-split retry on the same worker before it
					// accrues maxWorkerFailures (the two limits must not be
					// coupled). Orphans go to any live worker, which replays.
					for _, id := range r.splits {
						if owners[id] == r.w.id {
							owners[id] = ""
						}
					}
					if rqErr := requeue(r.splits); rqErr != nil {
						return fmt.Errorf("%v (last worker error: %v)", rqErr, err)
					}
					return nil
				}
				switch {
				case r.err != nil:
					if ctx.Err() != nil {
						// Build canceled, not a worker fault.
						c.release(r.w, relNeutral, 0)
						return finish(ctx.Err())
					}
					span.Error = r.err.Error()
					c.recordSpan(tmpl.JobID, span)
					if err := fail(r.err); err != nil {
						return finish(err)
					}
				case r.resp.Error != "":
					// Application errors are deterministic (same request, same
					// failure on any worker): fail the build, don't retry.
					span.Error = r.resp.Error
					c.recordSpan(tmpl.JobID, span)
					c.release(r.w, relOK, r.latency)
					return finish(fmt.Errorf("dist: worker %s: %s", r.w.id, r.resp.Error))
				default:
					parts, err := core.DecodePartials(r.resp.Partials)
					if err == nil {
						err = checkCoverage(parts, r.splits)
					}
					if err == nil {
						err = deliver(parts)
					}
					if err != nil {
						span.Error = err.Error()
						c.recordSpan(tmpl.JobID, span)
						if ferr := fail(err); ferr != nil {
							return finish(ferr)
						}
						break
					}
					c.release(r.w, relOK, r.latency)
					stats.RPCs++
					rstats.RPCs++
					c.rpcsTotal.Inc()
					rstats.ReplayedSplits += len(r.resp.Replayed)
					rstats.CachedSplits += len(r.resp.Cached)
					stats.CachedSplits += len(r.resp.Cached)
					c.cachedSplits.Add(int64(len(r.resp.Cached)))
					span.Cached = append([]int(nil), r.resp.Cached...)
					span.Replayed = append([]int(nil), r.resp.Replayed...)
					c.recordSpan(tmpl.JobID, span)
					responded[r.w.id] = true
					remaining -= len(parts)
					for _, part := range parts {
						owners[part.SplitID] = r.w.id
					}
				}
			case <-retry.C:
				// Re-check dispatchability: workers may have registered,
				// recovered, or freed capacity held by a concurrent build.
			case <-ctx.Done():
				return finish(ctx.Err())
			}
		}
		updateTrack()
		stats.PerRound = append(stats.PerRound, rstats)
		return nil
	}
}

// checkCoverage verifies a response's partials are exactly the assigned
// splits.
func checkCoverage(parts []core.SplitPartial, assigned []int) error {
	if len(parts) != len(assigned) {
		return fmt.Errorf("dist: got %d partials for %d assigned splits", len(parts), len(assigned))
	}
	want := make(map[int]bool, len(assigned))
	for _, id := range assigned {
		want[id] = true
	}
	for _, part := range parts {
		if !want[part.SplitID] {
			return fmt.Errorf("dist: unexpected partial for split %d", part.SplitID)
		}
		delete(want, part.SplitID)
	}
	return nil
}

// Handler returns the coordinator's HTTP surface: worker registration,
// heartbeats, fleet listing and saturation stats, mounted by wavehistd
// under /dist/v1/. Registration and heartbeats take binary frames only,
// like the worker endpoints.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, func(rw http.ResponseWriter, r *http.Request) {
		frame, status, err := readFrame(rw, r, maxControlBody)
		if err != nil {
			writeFrame(rw, status, EncodeRegisterResponse(&RegisterResponse{}))
			return
		}
		req, err := DecodeRegisterRequest(frame)
		if err != nil || req.ID == "" || req.Addr == "" {
			writeFrame(rw, http.StatusBadRequest, EncodeRegisterResponse(&RegisterResponse{}))
			return
		}
		c.Register(req.ID, req.Addr, req.Capacity)
		writeFrame(rw, http.StatusOK, EncodeRegisterResponse(&RegisterResponse{
			OK:              true,
			HeartbeatMillis: heartbeatEvery.Milliseconds(),
		}))
	})
	mux.HandleFunc("POST "+PathHeartbeat, func(rw http.ResponseWriter, r *http.Request) {
		frame, status, err := readFrame(rw, r, maxControlBody)
		if err != nil {
			writeFrame(rw, status, EncodeHeartbeatResponse(&HeartbeatResponse{}))
			return
		}
		req, err := DecodeHeartbeatRequest(frame)
		if err != nil || req.ID == "" {
			writeFrame(rw, http.StatusBadRequest, EncodeHeartbeatResponse(&HeartbeatResponse{}))
			return
		}
		code := http.StatusOK
		ok := c.Heartbeat(req.ID)
		if !ok {
			code = http.StatusNotFound
		}
		writeFrame(rw, code, EncodeHeartbeatResponse(&HeartbeatResponse{OK: ok}))
	})
	mux.HandleFunc("GET "+PathWorkers, func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, &WorkersResponse{Workers: c.Workers()})
	})
	mux.HandleFunc("GET "+PathFleet, func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, c.FleetStats())
	})
	mux.HandleFunc("GET "+PathTrace+"{id}", func(rw http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		v, ok := c.Trace(id)
		if !ok {
			writeJSON(rw, http.StatusNotFound, map[string]string{"error": "no trace for build " + id})
			return
		}
		writeJSON(rw, http.StatusOK, v)
	})
	return mux
}

// Collect emits the coordinator's metric families through an obs.Writer:
// lifetime build/RPC/retry/wire counters, round and RPC latency
// histograms, and scrape-time fleet gauges. Mounted into the owning
// daemon's /metrics registry via Registry.Collect.
func (c *Coordinator) Collect(w *obs.Writer) {
	w.Counter("wavehist_dist_builds_total", "Distributed builds by outcome.",
		float64(c.buildsStarted.Value()), obs.L("state", "started"))
	w.Counter("wavehist_dist_builds_total", "Distributed builds by outcome.",
		float64(c.buildsDone.Value()), obs.L("state", "done"))
	w.Counter("wavehist_dist_builds_total", "Distributed builds by outcome.",
		float64(c.buildsFailed.Value()), obs.L("state", "failed"))
	w.Counter("wavehist_dist_map_rpcs_total", "Successful map RPCs.", float64(c.rpcsTotal.Value()))
	w.Counter("wavehist_dist_retries_total", "Split re-assignments after failures.", float64(c.retriesTotal.Value()))
	w.Counter("wavehist_dist_worker_failures_total", "Map RPCs whose failure was blamed on the worker.", float64(c.failuresTotal.Value()))
	w.Counter("wavehist_dist_wire_bytes_total", "Measured map RPC request+response bytes.", float64(c.wireBytes.Value()))
	w.Counter("wavehist_dist_broadcast_bytes_total", "Coordinator broadcast blob bytes per round.", float64(c.bcastBytes.Value()))
	w.Counter("wavehist_dist_cached_splits_total", "Split results served from worker partial caches.", float64(c.cachedSplits.Load()))
	w.Histogram("wavehist_dist_round_duration_seconds", "Build round wall time (fan-out to barrier).", c.roundDur.View())
	w.Histogram("wavehist_dist_rpc_duration_seconds", "Map RPC latency.", c.rpcDur.View())
	fs := c.FleetStats()
	w.Gauge("wavehist_dist_alive_workers", "Workers currently alive.", float64(fs.AliveWorkers))
	w.Gauge("wavehist_dist_pending_splits", "Splits queued across active builds.", float64(fs.PendingSplits))
	w.Gauge("wavehist_dist_inflight_rpcs", "Map RPCs currently in flight.", float64(fs.InFlightRPCs))
	w.Gauge("wavehist_dist_active_builds", "Builds currently running.", float64(fs.ActiveBuilds))
}

// NewLoopbackCluster builds a coordinator with n in-process workers on a
// fresh Loopback transport (HTTP fallback attached, so remote workers can
// still join the same coordinator). This is wavehistd's single-binary
// -workers mode and the test harness: same coordinator and worker code,
// no sockets. capacity <= 0 defaults per NewWorker.
func NewLoopbackCluster(n, capacity int, cfg Config) (*Coordinator, *Loopback) {
	lb := NewLoopback()
	lb.Fallback = NewHTTPTransport()
	c := NewCoordinator(lb, cfg)
	for i := 0; i < n; i++ {
		w := NewWorker(fmt.Sprintf("local-%d", i), capacity)
		addr := lb.Add(w)
		c.Register(w.ID(), addr, w.Capacity())
	}
	return c, lb
}
