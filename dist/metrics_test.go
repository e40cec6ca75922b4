package dist_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/internal/obs"
)

func scrapeMetrics(t *testing.T, url string) map[string]*obs.Family {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", resp.StatusCode, body)
	}
	fams, err := obs.Lint(string(body))
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	return fams
}

// TestWorkerMetricsEndpoint: a worker that served map RPCs exposes its
// counters (requests, splits by source, wire bytes, cache posture) at
// GET /metrics in lint-clean exposition format.
func TestWorkerMetricsEndpoint(t *testing.T) {
	coord := dist.NewCoordinator(dist.NewHTTPTransport(), dist.Config{})
	w := dist.NewWorker("w0", 2)
	wsrv := httptest.NewServer(w.Handler())
	defer wsrv.Close()
	coord.Register("w0", wsrv.URL, 2)

	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 14, Domain: 1 << 10, Alpha: 1.1, Seed: 3, ChunkSize: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := wavelethist.Options{K: 20, Seed: 3}
	if _, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.TwoLevelS, opts, coord); err != nil {
		t.Fatal(err)
	}
	// A second identical build hits the worker's partial cache.
	if _, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.TwoLevelS, opts, coord); err != nil {
		t.Fatal(err)
	}

	fams := scrapeMetrics(t, wsrv.URL)
	if err := obs.RequireFamilies(fams,
		"waveworker_map_requests_total", "waveworker_map_duration_seconds",
		"waveworker_splits_total", "waveworker_wire_bytes_total",
		"waveworker_cache_hits_total", "waveworker_cache_misses_total",
		"waveworker_cache_bytes", "waveworker_capacity",
	); err != nil {
		t.Fatal(err)
	}
	bySource := map[string]float64{}
	for _, sm := range fams["waveworker_splits_total"].Samples {
		bySource[sm.Labels["source"]] = sm.Value
	}
	if bySource["computed"] < 1 {
		t.Errorf("splits computed = %v, want >= 1", bySource["computed"])
	}
	if bySource["cached"] < 1 {
		t.Errorf("splits cached = %v, want >= 1 after warm rebuild", bySource["cached"])
	}
	var wireIn float64
	for _, sm := range fams["waveworker_wire_bytes_total"].Samples {
		if sm.Labels["dir"] == "in" {
			wireIn = sm.Value
		}
	}
	if wireIn <= 0 {
		t.Errorf("wire bytes in = %v, want > 0", wireIn)
	}
}

// TestCoordinatorTraceEndpointAndDump: a build's spans are served at
// GET /dist/v1/trace/{id} and dumped as JSONL into Config.TraceDir.
func TestCoordinatorTraceEndpointAndDump(t *testing.T) {
	traceDir := t.TempDir()
	coord, _ := dist.NewLoopbackCluster(2, 0, dist.Config{TraceDir: traceDir})
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 14, Domain: 1 << 10, Alpha: 1.1, Seed: 5, ChunkSize: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	var jobID string
	ctx := dist.WithJobIDSink(context.Background(), func(id string) { jobID = id })
	if _, err := wavelethist.BuildDistributed(ctx, ds, wavelethist.HWTopk, wavelethist.Options{K: 20, Seed: 5}, coord); err != nil {
		t.Fatal(err)
	}
	if jobID == "" {
		t.Fatal("job-ID sink never fired")
	}

	tv, ok := coord.Trace(jobID)
	if !ok {
		t.Fatalf("no trace for %s", jobID)
	}
	if tv.State != "done" || tv.Rounds != 3 || len(tv.Spans) == 0 {
		t.Fatalf("trace: state=%s rounds=%d spans=%d", tv.State, tv.Rounds, len(tv.Spans))
	}
	for _, sp := range tv.Spans {
		if sp.Round < 1 || sp.Round > 3 {
			t.Errorf("span round out of range: %+v", sp)
		}
	}

	// Same view over HTTP.
	resp, err := http.Get(coordSrv.URL + dist.PathTrace + jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d", resp.StatusCode)
	}
	var httpView dist.TraceView
	if err := json.NewDecoder(resp.Body).Decode(&httpView); err != nil {
		t.Fatal(err)
	}
	if httpView.JobID != jobID || len(httpView.Spans) != len(tv.Spans) {
		t.Fatalf("HTTP trace mismatch: %s spans=%d, want %s spans=%d",
			httpView.JobID, len(httpView.Spans), jobID, len(tv.Spans))
	}
	if r2, err := http.Get(coordSrv.URL + dist.PathTrace + "build-unknown"); err != nil {
		t.Fatal(err)
	} else {
		r2.Body.Close()
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown trace = %d, want 404", r2.StatusCode)
		}
	}

	// JSONL dump: one summary line plus one per span, all valid JSON.
	f, err := os.Open(filepath.Join(traceDir, jobID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("line %d not JSON: %v", lines+1, err)
		}
		if v["job_id"] != jobID {
			t.Fatalf("line %d wrong job_id: %v", lines+1, v["job_id"])
		}
		lines++
	}
	if lines != 1+len(tv.Spans) {
		t.Fatalf("JSONL lines = %d, want %d", lines, 1+len(tv.Spans))
	}
}
