package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wavelethist/dist"
	"wavelethist/internal/obs"
)

// scrape fetches GET /metrics, lints the exposition, and returns the
// parsed families.
func scrape(t *testing.T, base string) map[string]*obs.Family {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	fams, err := obs.Lint(string(body))
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	return fams
}

// TestMetricsEndpoint drives queries and a distributed build through the
// API, then checks GET /metrics exposes every required family with
// consistent histogram shape (via the exposition linter).
func TestMetricsEndpoint(t *testing.T) {
	s, srv := newDistServer(t, 2)
	if _, err := s.Registry().Publish("hot", buildHist(t, 20000, 1<<10, 20, 7)); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/v1/hist/hot/point?key=5", http.StatusOK)
	getJSON(t, srv.URL+"/v1/hist/hot/range?lo=0&hi=99", http.StatusOK)
	postJSON(t, srv.URL+"/v1/hist/hot/query", map[string]any{
		"queries": []map[string]any{{"op": "point", "key": 1}, {"op": "range", "lo": 0, "hi": 9}},
	}, http.StatusOK)

	id := postBuild(t, srv.URL, `{"name":"hd","dataset":"z","method":"TwoLevel-S","k":20,"seed":7,"distributed":true}`)
	j, _ := s.jobs.get(id)
	if !j.Wait(30 * time.Second) {
		t.Fatal("build did not finish")
	}

	fams := scrape(t, srv.URL)
	if err := obs.RequireFamilies(fams,
		"wavehist_query_duration_seconds", "wavehist_queries_total",
		"wavehist_builds_total", "wavehist_build_duration_seconds",
		"wavehist_slow_queries_total", "wavehist_registry_version",
		"wavehist_histograms", "wavehist_jobs_running",
		"wavehist_read_only", "wavehist_repl_lag_versions",
		"wavehist_dist_builds_total", "wavehist_dist_map_rpcs_total",
		"wavehist_dist_wire_bytes_total", "wavehist_dist_round_duration_seconds",
		"wavehist_dist_rpc_duration_seconds", "wavehist_dist_alive_workers",
	); err != nil {
		t.Fatalf("missing families: %v", err)
	}

	// The point query must be countable and quantile-derivable: its
	// histogram family has a +Inf bucket >= 1 for op="point".
	var pointInf float64
	for _, sm := range fams["wavehist_query_duration_seconds"].Samples {
		if strings.HasSuffix(sm.Name, "_bucket") && sm.Labels[`op`] == "point" && sm.Labels["le"] == "+Inf" {
			pointInf = sm.Value
		}
	}
	if pointInf < 1 {
		t.Errorf("point query not observed in wavehist_query_duration_seconds (+Inf = %v)", pointInf)
	}
	// The finished distributed build shows up in both build families.
	var done float64
	for _, sm := range fams["wavehist_builds_total"].Samples {
		if sm.Labels["state"] == "done" {
			done = sm.Value
		}
	}
	if done < 1 {
		t.Errorf("wavehist_builds_total{state=done} = %v, want >= 1", done)
	}
}

// TestJobTraceEndpoint: a distributed build's spans are served at
// GET /v1/jobs/{id}/trace, keyed by the coordinator build ID the job view
// reports as dist_job_id.
func TestJobTraceEndpoint(t *testing.T) {
	s, srv := newDistServer(t, 2)
	id := postBuild(t, srv.URL, `{"name":"ht","dataset":"z","method":"H-WTopk","k":20,"seed":3,"distributed":true}`)
	j, _ := s.jobs.get(id)
	if !j.Wait(60 * time.Second) {
		t.Fatal("build did not finish")
	}
	jv := getJob(t, srv.URL, id)
	if jv.State != JobDone {
		t.Fatalf("job state %q (%s)", jv.State, jv.Error)
	}
	if jv.DistJobID == "" {
		t.Fatal("distributed job view has no dist_job_id")
	}

	out := getJSON(t, srv.URL+"/v1/jobs/"+id+"/trace", http.StatusOK)
	tr, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace object: %v", out)
	}
	if tr["state"] != "done" || tr["rounds"].(float64) != 3 {
		t.Fatalf("trace header: state=%v rounds=%v", tr["state"], tr["rounds"])
	}
	spans, _ := tr["spans"].([]any)
	if len(spans) == 0 {
		t.Fatal("trace has no spans")
	}
	rounds := map[float64]bool{}
	for _, raw := range spans {
		sp := raw.(map[string]any)
		rounds[sp["round"].(float64)] = true
		if sp["worker"] == "" {
			t.Errorf("span without worker: %v", sp)
		}
		if sp["dur_micros"].(float64) < 0 {
			t.Errorf("negative span duration: %v", sp)
		}
	}
	for r := 1.0; r <= 3; r++ {
		if !rounds[r] {
			t.Errorf("no span recorded for round %v", r)
		}
	}

	// Unknown jobs and simulated builds 404.
	getJSON(t, srv.URL+"/v1/jobs/job-999/trace", http.StatusNotFound)
	simID := postBuild(t, srv.URL, `{"name":"hs","dataset":"z","method":"TwoLevel-S","k":20,"seed":3}`)
	sj, _ := s.jobs.get(simID)
	sj.Wait(30 * time.Second)
	getJSON(t, srv.URL+"/v1/jobs/"+simID+"/trace", http.StatusNotFound)
}

// TestSlowQueryLog: queries over the threshold emit one structured log
// line and bump the counter; with the feature off nothing is logged.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s, srv := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog:       log.New(&buf, "", 0),
	})
	if _, err := s.Registry().Publish("x", buildHist(t, 5000, 1<<10, 20, 1)); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/v1/hist/x/point?key=3", http.StatusOK)
	logged := buf.String()
	if !strings.Contains(logged, "slow-query op=point name=x") || !strings.Contains(logged, "batch=1") {
		t.Fatalf("slow-query log line missing or malformed: %q", logged)
	}
	if got := s.slowQueries.Value(); got < 1 {
		t.Fatalf("slow query counter = %d, want >= 1", got)
	}

	// Threshold 0 disables the log entirely.
	var quiet bytes.Buffer
	s2, srv2 := newTestServer(t, Config{SlowQueryLog: log.New(&quiet, "", 0)})
	if _, err := s2.Registry().Publish("x", buildHist(t, 5000, 1<<10, 20, 1)); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv2.URL+"/v1/hist/x/point?key=3", http.StatusOK)
	if quiet.Len() != 0 {
		t.Fatalf("slow-query log written with threshold 0: %q", quiet.String())
	}
}

// TestSlowQuerySinkJSONL: with SlowQueryDir set, every slow query lands
// as one structured JSON line in slow-queries.jsonl — parseable records
// with op/name/micros/batch — while the log line and counter keep their
// existing behavior; without the dir no file appears.
func TestSlowQuerySinkJSONL(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	s, srv := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryLog:       log.New(&buf, "", 0),
		SlowQueryDir:       dir,
	})
	if _, err := s.Registry().Publish("x", buildHist(t, 5000, 1<<10, 20, 1)); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/v1/hist/x/point?key=3", http.StatusOK)
	getJSON(t, srv.URL+"/v1/hist/x/range?lo=0&hi=100", http.StatusOK)
	postJSON(t, srv.URL+"/v1/hist/x/query", json.RawMessage(`{"queries":[{"op":"point","key":1},{"op":"point","key":2}]}`), http.StatusOK)

	b, err := os.ReadFile(filepath.Join(dir, "slow-queries.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink holds %d records, want 3:\n%s", len(lines), b)
	}
	wantOps := []string{"point", "range", "batch"}
	for i, line := range lines {
		var rec struct {
			TS     string `json:"ts"`
			Op     string `json:"op"`
			Name   string `json:"name"`
			Micros int64  `json:"micros"`
			Batch  int    `json:"batch"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d is not JSON: %q: %v", i, line, err)
		}
		if rec.Op != wantOps[i] || rec.Name != "x" || rec.Micros < 0 {
			t.Fatalf("record %d = %+v, want op %q name x", i, rec, wantOps[i])
		}
		if ts, err := time.Parse(time.RFC3339Nano, rec.TS); err != nil || ts.IsZero() {
			t.Fatalf("record %d timestamp %q: %v", i, rec.TS, err)
		}
		if rec.Op == "batch" && rec.Batch != 2 {
			t.Fatalf("batch record = %+v, want batch=2", rec)
		}
	}
	if !strings.Contains(buf.String(), "slow-query op=point") {
		t.Fatal("human-readable log line suppressed by the sink")
	}
	if got := s.slowQueries.Value(); got < 3 {
		t.Fatalf("slow query counter = %d, want >= 3", got)
	}

	// No dir configured: no sink file, even with slow queries firing.
	s2, srv2 := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryLog:       log.New(io.Discard, "", 0),
	})
	if _, err := s2.Registry().Publish("x", buildHist(t, 5000, 1<<10, 20, 1)); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv2.URL+"/v1/hist/x/point?key=3", http.StatusOK)
	if s2.slowLog != nil {
		t.Fatal("sink constructed without SlowQueryDir")
	}
}

// TestSlowLogCoalescedField: slow batch records carry the router's
// coalesced count — present when the query frame's group marked the batch
// as merged, omitted from the JSON otherwise.
func TestSlowLogCoalescedField(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond, // everything is slow
		SlowQueryDir:       dir,
	})
	h := buildHist(t, 20000, 1<<10, 30, 41)
	if _, err := s.Registry().Publish("p", h); err != nil {
		t.Fatal(err)
	}
	queries := make([]BatchQuery, 20)
	for i := range queries {
		queries[i] = BatchQuery{Op: "point", Key: int64(i)}
	}
	post := func(coalesced int) {
		code, body := postFrame(t, ts.URL, []dist.QueryGroup{{Name: "p", Coalesced: coalesced, Queries: queries}})
		if code != http.StatusOK {
			t.Fatalf("query frame = %d: %s", code, body)
		}
	}
	post(0)
	post(17)
	s.Close() // flush and close the sink

	f, err := os.Open(filepath.Join(dir, "slow-queries.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []map[string]any
	scan := bufio.NewScanner(f)
	for scan.Scan() {
		var m map[string]any
		if err := json.Unmarshal(scan.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", scan.Text(), err)
		}
		if m["op"] == "batch" {
			recs = append(recs, m)
		}
	}
	if len(recs) != 2 {
		t.Fatalf("got %d batch records, want 2", len(recs))
	}
	if _, present := recs[0]["coalesced"]; present {
		t.Fatalf("direct batch record has coalesced field: %v", recs[0])
	}
	if recs[1]["coalesced"].(float64) != 17 {
		t.Fatalf("coalesced batch record: %v", recs[1])
	}
	if recs[0]["batch"].(float64) != 20 || recs[1]["batch"].(float64) != 20 {
		t.Fatalf("batch sizes: %v / %v", recs[0], recs[1])
	}
}

// TestStatsQuantiles: /v1/stats per-op stats carry p50/p99 once queries
// have been timed, without breaking the old mean/count fields.
func TestStatsQuantiles(t *testing.T) {
	s, srv := newTestServer(t, Config{})
	if _, err := s.Registry().Publish("q", buildHist(t, 5000, 1<<10, 20, 2)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		getJSON(t, srv.URL+"/v1/hist/q/point?key=3", http.StatusOK)
	}
	out := getJSON(t, srv.URL+"/v1/stats", http.StatusOK)
	hists, ok := out["histograms"].(map[string]any)
	if !ok || hists["q"] == nil {
		t.Fatalf("stats histograms: %v", out)
	}
	st := hists["q"].(map[string]any)["stats"].(map[string]any)["point"].(map[string]any)
	if st["count"].(float64) != 10 {
		t.Fatalf("point count: %v", st)
	}
	p50, ok50 := st["p50_micros"].(float64)
	p99, ok99 := st["p99_micros"].(float64)
	if !ok50 || !ok99 || p50 < 0 || p99 < p50 {
		t.Fatalf("quantiles missing or inverted: %v", st)
	}
	if mean := st["mean_micros"].(float64); mean <= 0 {
		t.Fatalf("mean_micros: %v", mean)
	}
}
