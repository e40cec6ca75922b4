package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, wantCode int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return out
}

func postJSON(t *testing.T, url string, req any, wantCode int) map[string]any {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s = %d, want %d: %s", url, resp.StatusCode, wantCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("POST %s: bad JSON %q: %v", url, body, err)
	}
	return out
}

func waitForJob(t *testing.T, base, jobURL string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j := getJSON(t, base+jobURL, http.StatusOK)
		switch j["state"] {
		case string(JobDone):
			return j
		case string(JobFailed):
			t.Fatalf("build job failed: %v", j["error"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("build job did not finish in time")
	return nil
}

// TestWavehistdEndToEnd is the daemon acceptance path: create a Zipf
// dataset, launch an async TwoLevel-S build, query point/range/batch,
// stream updates until the maintainer republishes, and watch the
// registry version advance.
func TestWavehistdEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	// Health before anything is published.
	h := getJSON(t, base+"/healthz", http.StatusOK)
	if h["ok"] != true {
		t.Fatalf("healthz: %v", h)
	}

	// Create the dataset.
	dsResp := postJSON(t, base+"/v1/datasets", DatasetRequest{
		Name: "zipf1", Kind: "zipf", Records: 200000, Domain: 1 << 14, Alpha: 1.1, Seed: 42,
	}, http.StatusCreated)
	if dsResp["records"].(float64) != 200000 {
		t.Fatalf("dataset: %v", dsResp)
	}

	// Async TwoLevel-S build.
	bResp := postJSON(t, base+"/v1/build", BuildRequest{
		Name: "traffic", Dataset: "zipf1", Method: "TwoLevel-S", K: 40, Seed: 7,
	}, http.StatusAccepted)
	job := waitForJob(t, base, bResp["status_url"].(string))
	if job["name"] != "traffic" || job["k"].(float64) != 40 {
		t.Fatalf("job result: %v", job)
	}
	versionAfterBuild := uint64(job["version"].(float64))
	if versionAfterBuild != 1 {
		t.Fatalf("first publish version = %d", versionAfterBuild)
	}

	// Point and range queries.
	p := getJSON(t, base+"/v1/hist/traffic/point?key=5", http.StatusOK)
	if _, ok := p["estimate"].(float64); !ok {
		t.Fatalf("point: %v", p)
	}
	rg := getJSON(t, base+"/v1/hist/traffic/range?lo=0&hi=8191", http.StatusOK)
	est := rg["estimate"].(float64)
	// w[0] is always in the top-k of a skewed frequency vector, so the
	// half-domain range estimate must be a large positive number.
	if est < 10000 {
		t.Fatalf("range estimate implausibly small: %v", est)
	}

	// Batch endpoint: mixed ops, per-query errors isolated. Empty ranges
	// follow the clamp contract (estimate 0, not an error).
	queries := []BatchQuery{
		{Op: "point", Key: 5},
		{Op: "range", Lo: 0, Hi: 8191},
		{Op: "range", Lo: 10, Hi: 3}, // empty range: clamps to estimate 0
		{Op: "point", Key: 1 << 20},  // out of domain
		{Op: "sketch"},               // unknown op
	}
	bt := postJSON(t, base+"/v1/hist/traffic/query", map[string]any{"queries": queries}, http.StatusOK)
	results := bt["results"].([]any)
	if len(results) != len(queries) {
		t.Fatalf("batch returned %d results", len(results))
	}
	if results[0].(map[string]any)["estimate"].(float64) != p["estimate"].(float64) {
		t.Fatal("batch point disagrees with single point")
	}
	if results[1].(map[string]any)["estimate"].(float64) != est {
		t.Fatal("batch range disagrees with single range")
	}
	if r2 := results[2].(map[string]any); r2["error"] != nil || r2["estimate"].(float64) != 0 {
		t.Fatalf("empty range should clamp to estimate 0, got %v", r2)
	}
	for i := 3; i < 5; i++ {
		if results[i].(map[string]any)["error"] == nil {
			t.Fatalf("batch query %d should have errored", i)
		}
	}

	// Stream updates: below the republish threshold nothing republishes...
	ups := make([]KeyUpdate, 100) // < republishEvery
	for i := range ups {
		ups[i] = KeyUpdate{Key: int64(i % 50), Delta: 3}
	}
	u1 := postJSON(t, base+"/v1/hist/traffic/updates", map[string]any{"updates": ups}, http.StatusOK)
	if u1["republished"] != false {
		t.Fatalf("republished too early: %v", u1)
	}
	// ...then crossing it swaps in the adapted top-k atomically.
	u2 := postJSON(t, base+"/v1/hist/traffic/updates",
		map[string]any{"updates": ups, "flush": true}, http.StatusOK)
	if u2["republished"] != true {
		t.Fatalf("flush did not republish: %v", u2)
	}
	versionAfterUpdates := uint64(u2["version"].(float64))
	if versionAfterUpdates <= versionAfterBuild {
		t.Fatalf("registry version did not advance: %d -> %d", versionAfterBuild, versionAfterUpdates)
	}
	// The 200 * delta=3 insertions all landed on keys < 50; the updated
	// histogram must now estimate more mass there.
	rg2 := getJSON(t, base+"/v1/hist/traffic/range?lo=0&hi=49", http.StatusOK)
	if rg2["estimate"].(float64) <= 0 {
		t.Fatalf("updated range estimate: %v", rg2["estimate"])
	}

	// Listing reflects the new version.
	list := getJSON(t, base+"/v1/hist", http.StatusOK)
	if uint64(list["registry_version"].(float64)) != versionAfterUpdates {
		t.Fatalf("list version: %v", list["registry_version"])
	}

	// Stats counted everything.
	st := getJSON(t, base+"/v1/stats", http.StatusOK)
	hs := st["histograms"].(map[string]any)["traffic"].(map[string]any)["stats"].(map[string]any)
	if c := hs["point"].(map[string]any)["count"].(float64); c < 1 {
		t.Fatalf("point stats: %v", hs)
	}
	if c := hs["update"].(map[string]any)["count"].(float64); c != 200 {
		t.Fatalf("update stats count = %v, want 200", c)
	}
	if c := hs["batch"].(map[string]any)["count"].(float64); c != 1 {
		t.Fatalf("batch stats count = %v, want 1", c)
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := ts.URL

	getJSON(t, base+"/v1/hist/nope/point?key=1", http.StatusNotFound)
	getJSON(t, base+"/v1/jobs/job-99", http.StatusNotFound)
	postJSON(t, base+"/v1/build", BuildRequest{Name: "x", Dataset: "missing", Method: "Send-V"},
		http.StatusNotFound)
	postJSON(t, base+"/v1/datasets", DatasetRequest{Name: "bad/name", Kind: "zipf", Records: 10, Domain: 16},
		http.StatusBadRequest)
	postJSON(t, base+"/v1/datasets", DatasetRequest{Name: "d", Kind: "nope"}, http.StatusBadRequest)

	// Unknown method and invalid histogram names are rejected up front.
	postJSON(t, base+"/v1/datasets", DatasetRequest{Name: "d", Kind: "zipf", Records: 100, Domain: 256},
		http.StatusCreated)
	postJSON(t, base+"/v1/build", BuildRequest{Name: "x", Dataset: "d", Method: "Magic"},
		http.StatusBadRequest)
	postJSON(t, base+"/v1/build", BuildRequest{Name: "a b", Dataset: "d", Method: "Send-V"},
		http.StatusBadRequest)

	// Oversized synthetic dataset request is refused, not attempted.
	postJSON(t, base+"/v1/datasets", DatasetRequest{Name: "big", Kind: "zipf", Records: 1 << 40, Domain: 256},
		http.StatusBadRequest)
}

// TestConcurrentQueriesDuringRepublish exercises the acceptance-criteria
// race scenario over HTTP: parallel /point and /range query traffic while
// a background rebuild loop republishes the same name. Run with -race.
func TestConcurrentQueriesDuringRepublish(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := ts.URL

	if _, err := s.Registry().Publish("hot", buildHist(t, 50000, 1<<12, 30, 1)); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var queries atomic.Int64
	var wg sync.WaitGroup
	client := &http.Client{}
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for !stop.Load() {
				url := base + "/v1/hist/hot/point?key=" + fmt.Sprint(id*37%4096)
				if id%2 == 1 {
					url = base + fmt.Sprintf("/v1/hist/hot/range?lo=%d&hi=%d", id*13%2048, id*13%2048+512)
				}
				resp, err := client.Get(url)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
				queries.Add(1)
			}
		}(i)
	}

	// Rebuild/republish loop racing the query traffic.
	for seed := uint64(2); seed < 8; seed++ {
		if _, err := s.Registry().Publish("hot", buildHist(t, 20000, 1<<12, 30, seed)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if queries.Load() == 0 {
		t.Fatal("no queries completed during republishing")
	}
	if v := s.Registry().Version(); v != 7 {
		t.Fatalf("registry version = %d, want 7", v)
	}
}

// TestUpdatesConflictAfterRebuild verifies a maintainer seeded from an
// older histogram version can never republish over a newer build: the
// flush returns 409 and the next update batch reseeds from the fresh
// version.
func TestUpdatesConflictAfterRebuild(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := ts.URL
	if _, err := s.Registry().Publish("x", buildHist(t, 10000, 1<<10, 20, 1)); err != nil {
		t.Fatal(err)
	}
	// Seed the maintainer (no flush, no republish).
	postJSON(t, base+"/v1/hist/x/updates",
		map[string]any{"updates": []KeyUpdate{{Key: 1, Delta: 1}}}, http.StatusOK)
	// A rebuild publishes version 2 behind the maintainer's back.
	if _, err := s.Registry().Publish("x", buildHist(t, 10000, 1<<10, 20, 2)); err != nil {
		t.Fatal(err)
	}
	// The stale maintainer's flush must be refused, not clobber v2.
	postJSON(t, base+"/v1/hist/x/updates",
		map[string]any{"updates": []KeyUpdate{{Key: 2, Delta: 1}}, "flush": true}, http.StatusConflict)
	if v := s.Registry().Version(); v != 2 {
		t.Fatalf("stale maintainer advanced the registry: version %d", v)
	}
	// The next batch reseeds from v2 and republishes cleanly as v3.
	resp := postJSON(t, base+"/v1/hist/x/updates",
		map[string]any{"updates": []KeyUpdate{{Key: 2, Delta: 1}}, "flush": true}, http.StatusOK)
	if resp["republished"] != true || uint64(resp["version"].(float64)) != 3 {
		t.Fatalf("reseeded republish: %v", resp)
	}
}

// TestJobSetRetention verifies finished jobs are pruned oldest-first once
// the set exceeds its cap, while running jobs are never dropped.
func TestJobSetRetention(t *testing.T) {
	js := newJobSet(3)
	j1 := js.create("a", "d", "Send-V", ModeSimulated, nil)
	j2 := js.create("b", "d", "Send-V", ModeSimulated, nil)
	js.fail(j1, fmt.Errorf("x"))
	js.finish(j2, &Entry{Version: 1}, 5, nil)
	js.create("c", "d", "Send-V", ModeSimulated, nil) // still running
	js.create("e", "d", "Send-V", ModeSimulated, nil) // 4th job: prune kicks in, drops j1
	if _, ok := js.get(j1.ID); ok {
		t.Fatal("oldest finished job not pruned")
	}
	if _, ok := js.get(j2.ID); !ok {
		t.Fatal("pruned more than needed")
	}
	js.create("f", "d", "Send-V", ModeSimulated, nil) // drops j2, but running jobs survive
	if _, ok := js.get(j2.ID); ok {
		t.Fatal("second finished job not pruned")
	}
	for _, id := range []string{"job-3", "job-4", "job-5"} {
		if _, ok := js.get(id); !ok {
			t.Fatalf("running job %s was pruned", id)
		}
	}
}

// TestSnapshotPersistenceThroughServer verifies a server restart over the
// same snapshot dir keeps serving the published histogram.
func TestSnapshotPersistenceThroughServer(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewServer(Config{SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Registry().Publish("durable", buildHist(t, 10000, 1<<10, 20, 9)); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Config{SnapshotDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s2)
	defer ts.Close()
	p := getJSON(t, ts.URL+"/v1/hist/durable/point?key=3", http.StatusOK)
	if _, ok := p["estimate"].(float64); !ok {
		t.Fatalf("restarted server point query: %v", p)
	}
}
