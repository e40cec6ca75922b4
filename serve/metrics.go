package serve

import (
	"log"
	"time"

	"wavelethist/internal/obs"
)

// The serve-side observability plane: a per-server obs.Registry exposed
// at GET /metrics. Query latencies come from the same histogram-backed
// OpStats /v1/stats reports (per-entry stats merged into one family per
// op class at scrape time), build counters are recorded by the job
// runner, and replication / fleet posture is collected live.

func (s *Server) initMetrics() {
	m := obs.NewRegistry()
	s.metrics = m
	const buildHelp = "Build jobs finished, by outcome."
	s.buildsDone = m.Counter("wavehist_builds_total", buildHelp, obs.L("state", "done"))
	s.buildsFailed = m.Counter("wavehist_builds_total", buildHelp, obs.L("state", "failed"))
	s.buildsCanceled = m.Counter("wavehist_builds_total", buildHelp, obs.L("state", "canceled"))
	s.buildDur = m.Histogram("wavehist_build_duration_seconds", "Wall time of finished build jobs (all outcomes).")
	s.slowQueries = m.Counter("wavehist_slow_queries_total", "Queries over Config.SlowQueryThreshold.")
	s.batchDecoded = NewBatchDecodeCounter(m)
	const seedHelp = "Maintainers created, by seed: build = a fresh build, snapshot = the entry file's maintainer state, published = the published top-k (shadow set lost: promoted replica, restart without -snapshots, superseded lineage)."
	for _, src := range []string{"build", "snapshot", "published"} {
		s.seeds[src] = m.Counter("wavehist_maintainer_seeds_total", seedHelp, obs.L("source", src))
	}
	m.Collect(s.collectMetrics)
	if s.cfg.Coordinator != nil {
		m.Collect(s.cfg.Coordinator.Collect)
	}
}

// NewBatchDecodeCounter registers wavehist_batch_decode_total, one family
// on the shard and on the router, and returns the function that counts
// one JSON batch or updates body by the decoder that served it. A client
// whose bodies keep landing on "std" — escaped strings, floats, unknown or
// duplicate keys — pays several times the parse cost of one the scanner
// takes (dist/queryjson.go).
func NewBatchDecodeCounter(m *obs.Registry) func(scanned bool) {
	const help = "JSON batch and updates bodies decoded, by decoder: scan = the canonical-body scanner, std = encoding/json (everything the scanner declines, rejected bodies included)."
	scan := m.Counter("wavehist_batch_decode_total", help, obs.L("decoder", "scan"))
	std := m.Counter("wavehist_batch_decode_total", help, obs.L("decoder", "std"))
	return func(scanned bool) {
		if scanned {
			scan.Inc()
		} else {
			std.Inc()
		}
	}
}

// Metrics exposes the server's metrics registry (GET /metrics).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// collectMetrics emits the scrape-time families: per-op query latency
// histograms and totals (merged across every published histogram's
// stats), registry posture, job queue depth, and replication lag.
func (s *Server) collectMetrics(w *obs.Writer) {
	snap := s.reg.Snapshot()
	type opAgg struct {
		hist  obs.HistView
		count int64
	}
	ops := [5]opAgg{}
	opNames := [5]string{"point", "range", "batch", "batch_queries", "update"}
	for _, n := range snap.Names() {
		e, _ := snap.Lookup(n)
		for i, o := range [5]*OpStats{
			&e.Stats.Point, &e.Stats.Range, &e.Stats.Batch, &e.Stats.BatchQueries, &e.Stats.Update,
		} {
			ops[i].hist.Merge(o.HistView())
			ops[i].count += o.Count()
		}
	}
	const qHelp = "Query latency by operation class (timed operations only)."
	const tHelp = "Operations served by class (batch_queries counts sub-queries inside batches)."
	for i, name := range opNames {
		w.Histogram("wavehist_query_duration_seconds", qHelp, ops[i].hist, obs.L("op", name))
		w.Counter("wavehist_queries_total", tHelp, float64(ops[i].count), obs.L("op", name))
	}
	w.Gauge("wavehist_registry_version", "Current registry version.", float64(snap.Version()))
	w.Gauge("wavehist_histograms", "Published histograms.", float64(len(snap.Names())))
	w.Gauge("wavehist_jobs_running", "Build jobs currently running.", float64(s.jobs.running()))
	w.Gauge("wavehist_builds_inflight_slots", "Build-concurrency slots in use.", float64(len(s.buildSem)))

	// Replication posture. A primary reports read_only 0 and lag 0, so
	// the families exist on every daemon and dashboards need no
	// role-conditional queries.
	ro := 0.0
	if s.readOnly.Load() {
		ro = 1
	}
	w.Gauge("wavehist_read_only", "1 when serving as a read-only replica.", ro)
	w.Gauge("wavehist_epoch", "Registry epoch of this server's write lineage (bumped on cold start and promotion).", float64(s.epoch.Load()))
	var lag, applied, sinceSync, replEpoch, resets float64
	if st := s.repl.Load(); st != nil {
		lag = float64(st.LagVersions)
		applied = float64(st.Version)
		replEpoch = float64(st.Epoch)
		resets = float64(st.EpochResets)
		switch {
		case !st.SyncedAt.IsZero():
			sinceSync = time.Since(st.SyncedAt).Seconds()
		case !st.FirstAttempt.IsZero():
			// Never synced successfully: report time since the first
			// attempt so the sync-stalled alert can fire for a replica
			// whose primary was dead from the start.
			sinceSync = time.Since(st.FirstAttempt).Seconds()
		}
	}
	w.Gauge("wavehist_repl_lag_versions", "Registry versions the primary was ahead at the last pull (0 on a primary).", lag)
	w.Gauge("wavehist_repl_applied_version", "Last registry version applied from the primary.", applied)
	w.Gauge("wavehist_repl_seconds_since_sync", "Seconds since the last successful pull (time since first failed attempt while never synced).", sinceSync)
	w.Gauge("wavehist_repl_epoch", "Primary registry epoch the replication cursor was minted under (0 = never synced).", replEpoch)
	w.Counter("wavehist_repl_epoch_resets_total", "Replication cursor resets forced by a primary epoch change.", resets)
}

// slowQuery logs one structured line (and counts) when a query exceeded
// the configured threshold. Off unless Config.SlowQueryThreshold > 0.
// coalesced is the number of original client queries the router's
// coalescer folded into this request (0 for direct traffic).
func (s *Server) slowQuery(op, name string, batch, coalesced int, d time.Duration) {
	if s.cfg.SlowQueryThreshold <= 0 || d < s.cfg.SlowQueryThreshold {
		return
	}
	s.slowQueries.Inc()
	logger := s.cfg.SlowQueryLog
	if logger == nil {
		logger = log.Default()
	}
	if coalesced > 0 {
		logger.Printf("slow-query op=%s name=%s micros=%d batch=%d coalesced=%d", op, name, d.Microseconds(), batch, coalesced)
	} else {
		logger.Printf("slow-query op=%s name=%s micros=%d batch=%d", op, name, d.Microseconds(), batch)
	}
	if s.slowLog != nil {
		s.slowLog.record(op, name, batch, coalesced, d)
	}
}
