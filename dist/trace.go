package dist

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Distributed-build traces: the coordinator records one Span per
// split-batch RPC (worker, start/end, wire bytes, cached/replayed
// splits, retry flag) into a bounded per-build ring kept for the last
// tracedBuilds builds. serve exposes them at
// GET /v1/jobs/{id}/trace, the coordinator itself at
// GET /dist/v1/trace/{id}; Config.TraceDir additionally dumps each
// finished build as JSONL so a slow or skewed build can be explained
// after the process is gone.

// Span is one unit of traced work: a split-batch map RPC.
type Span struct {
	Round  int    `json:"round"`
	Worker string `json:"worker,omitempty"`
	Splits []int  `json:"splits,omitempty"`
	// StartUnixMicros/DurMicros bound the RPC on the coordinator's clock.
	StartUnixMicros int64 `json:"start_unix_micros,omitempty"`
	DurMicros       int64 `json:"dur_micros,omitempty"`
	WireBytes       int64 `json:"wire_bytes,omitempty"`
	// Cached/Replayed list the splits the worker served from its partial
	// cache / had to replay from earlier rounds.
	Cached   []int `json:"cached,omitempty"`
	Replayed []int `json:"replayed,omitempty"`
	// Retry marks a batch holding at least one re-dispatched split.
	Retry bool   `json:"retry,omitempty"`
	Error string `json:"error,omitempty"`
}

// TraceView is the JSON form of one build's trace.
type TraceView struct {
	JobID           string `json:"job_id"`
	Method          string `json:"method"`
	Splits          int    `json:"splits"`
	Rounds          int    `json:"rounds"`
	State           string `json:"state"` // running | done | failed
	Error           string `json:"error,omitempty"`
	StartUnixMicros int64  `json:"start_unix_micros"`
	EndUnixMicros   int64  `json:"end_unix_micros,omitempty"`
	Spans           []Span `json:"spans"`
	// DroppedSpans counts spans discarded once the per-build cap was hit
	// (oldest kept — the cap protects memory, not fidelity).
	DroppedSpans int `json:"dropped_spans,omitempty"`
}

// Trace retention bounds: builds kept and spans kept per build.
const (
	tracedBuilds       = 64
	traceSpansPerBuild = 4096
)

type buildTraceRec struct {
	view TraceView
}

// traceStore is the coordinator's bounded build-trace ring.
type traceStore struct {
	mu    sync.Mutex
	recs  map[string]*buildTraceRec
	order []string // insertion order, oldest first
}

func (ts *traceStore) begin(jobID, method string, splits, rounds int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.recs == nil {
		ts.recs = map[string]*buildTraceRec{}
	}
	ts.recs[jobID] = &buildTraceRec{view: TraceView{
		JobID:           jobID,
		Method:          method,
		Splits:          splits,
		Rounds:          rounds,
		State:           "running",
		StartUnixMicros: time.Now().UnixMicro(),
	}}
	ts.order = append(ts.order, jobID)
	for len(ts.order) > tracedBuilds {
		delete(ts.recs, ts.order[0])
		ts.order = ts.order[1:]
	}
}

func (ts *traceStore) record(jobID string, sp Span) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rec, ok := ts.recs[jobID]
	if !ok {
		return
	}
	if len(rec.view.Spans) >= traceSpansPerBuild {
		rec.view.DroppedSpans++
		return
	}
	rec.view.Spans = append(rec.view.Spans, sp)
}

// end closes a build's trace and returns a copy for the TraceDir dump.
func (ts *traceStore) end(jobID string, buildErr error) (TraceView, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rec, ok := ts.recs[jobID]
	if !ok {
		return TraceView{}, false
	}
	rec.view.EndUnixMicros = time.Now().UnixMicro()
	if buildErr != nil {
		rec.view.State = "failed"
		rec.view.Error = buildErr.Error()
	} else {
		rec.view.State = "done"
	}
	return rec.view, true
}

func (ts *traceStore) get(jobID string) (TraceView, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	rec, ok := ts.recs[jobID]
	if !ok {
		return TraceView{}, false
	}
	// Copy the span slice so callers never alias the live ring.
	v := rec.view
	v.Spans = append([]Span(nil), rec.view.Spans...)
	return v, true
}

// Trace returns the recorded trace for a build job ID ("build-…"), live
// while the build runs and retained for the last tracedBuilds builds.
func (c *Coordinator) Trace(jobID string) (TraceView, bool) {
	return c.traces.get(jobID)
}

func (c *Coordinator) beginTrace(jobID, method string, splits, rounds int) {
	c.traces.begin(jobID, method, splits, rounds)
}

func (c *Coordinator) recordSpan(jobID string, sp Span) {
	c.traces.record(jobID, sp)
}

// endTrace closes the trace and, when Config.TraceDir is set, dumps it
// as JSONL (one summary line, then one line per span). Best-effort: a
// failed write never fails the build.
func (c *Coordinator) endTrace(jobID string, buildErr error) {
	v, ok := c.traces.end(jobID, buildErr)
	if !ok || c.cfg.TraceDir == "" {
		return
	}
	_ = dumpTraceJSONL(c.cfg.TraceDir, v)
}

func dumpTraceJSONL(dir string, v TraceView) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, v.JobID+".jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	summary := v
	summary.Spans = nil
	if err := enc.Encode(summary); err != nil {
		return err
	}
	for _, sp := range v.Spans {
		line := struct {
			JobID string `json:"job_id"`
			Span
		}{JobID: v.JobID, Span: sp}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return f.Sync()
}

// jobIDSinkKey carries a callback through a build's context so the
// caller (serve's async job runner) learns the coordinator-assigned
// build job ID as soon as it exists — before the build finishes — and
// can serve GET /v1/jobs/{id}/trace for a still-running build.
type jobIDSinkKey struct{}

// WithJobIDSink returns a context that delivers the distributed build's
// job ID ("build-…") to fn when the coordinator allocates it. fn must be
// safe for concurrent use and must not block.
func WithJobIDSink(ctx context.Context, fn func(jobID string)) context.Context {
	return context.WithValue(ctx, jobIDSinkKey{}, fn)
}

func notifyJobID(ctx context.Context, jobID string) {
	if fn, ok := ctx.Value(jobIDSinkKey{}).(func(string)); ok && fn != nil {
		fn(jobID)
	}
}
