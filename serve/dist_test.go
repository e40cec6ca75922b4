package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wavelethist"
	"wavelethist/dist"
)

func newDistServer(t *testing.T, workers int) (*Server, *httptest.Server) {
	t.Helper()
	coord, _ := dist.NewLoopbackCluster(workers, 2, dist.Config{})
	s, err := NewServer(Config{Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 15, Domain: 1 << 11, Alpha: 1.1, Seed: 11, ChunkSize: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterDataset("z", ds); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	t.Cleanup(s.Close)
	return s, srv
}

func postBuild(t *testing.T, url string, body string) string {
	t.Helper()
	res, err := http.Post(url+"/v1/build", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out struct {
		Job string `json:"job"`
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("build: HTTP %d", res.StatusCode)
	}
	return out.Job
}

func getJob(t *testing.T, url, id string) JobView {
	t.Helper()
	res, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var v JobView
	if err := json.NewDecoder(res.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDistributedBuildViaAPI runs POST /v1/build with "distributed": true
// against a loopback fleet and checks the uniform job metrics.
func TestDistributedBuildViaAPI(t *testing.T) {
	s, srv := newDistServer(t, 3)

	// Simulated build first, for the comparable modeled metric.
	simID := postBuild(t, srv.URL, `{"name":"hsim","dataset":"z","method":"TwoLevel-S","k":20,"seed":5}`)
	distID := postBuild(t, srv.URL, `{"name":"hdist","dataset":"z","method":"TwoLevel-S","k":20,"seed":5,"distributed":true}`)

	j1, _ := s.jobs.get(simID)
	j2, _ := s.jobs.get(distID)
	if !j1.Wait(30*time.Second) || !j2.Wait(30*time.Second) {
		t.Fatal("jobs did not finish")
	}
	sim := getJob(t, srv.URL, simID)
	dst := getJob(t, srv.URL, distID)
	if sim.State != JobDone || dst.State != JobDone {
		t.Fatalf("states: sim=%+v dist=%+v", sim, dst)
	}
	if sim.Mode != ModeSimulated || dst.Mode != ModeDistributed {
		t.Fatalf("modes: sim=%q dist=%q", sim.Mode, dst.Mode)
	}
	// Uniform metrics: the modeled comm metric must agree across modes;
	// the distributed job must additionally report real wire bytes.
	if sim.ModelCommBytes == 0 || sim.ModelCommBytes != dst.ModelCommBytes {
		t.Errorf("model comm: sim=%d dist=%d", sim.ModelCommBytes, dst.ModelCommBytes)
	}
	if dst.WireBytes <= 0 || dst.CommBytes != dst.WireBytes {
		t.Errorf("distributed wire bytes: wire=%d comm=%d", dst.WireBytes, dst.CommBytes)
	}
	if sim.WireBytes != 0 {
		t.Errorf("simulated job reports wire bytes %d", sim.WireBytes)
	}
	if sim.WallMillis < 0 || dst.WallMillis < 0 || sim.RecordsRead != dst.RecordsRead {
		t.Errorf("records read: sim=%d dist=%d", sim.RecordsRead, dst.RecordsRead)
	}

	// Both publishes must serve identical estimates (same seed).
	for _, q := range []string{"hsim", "hdist"} {
		res, err := http.Get(srv.URL + "/v1/hist/" + q + "/range?lo=0&hi=100")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("query %s: HTTP %d", q, res.StatusCode)
		}
	}
	e1, _ := s.reg.Lookup("hsim")
	e2, _ := s.reg.Lookup("hdist")
	v1, _ := e1.Range(0, 1<<10)
	v2, _ := e2.Range(0, 1<<10)
	if v1 != v2 {
		t.Errorf("simulated and distributed estimates differ: %v vs %v", v1, v2)
	}
}

// TestDistributedHWTopkViaAPI runs the three-round H-WTopk through
// POST /v1/build on a loopback fleet: the job must report per-round
// metrics (model + wire bytes, candidate-set size), match the simulated
// build's modeled communication, and /v1/stats must expose fleet
// saturation.
func TestDistributedHWTopkViaAPI(t *testing.T) {
	s, srv := newDistServer(t, 3)

	simID := postBuild(t, srv.URL, `{"name":"hsim","dataset":"z","method":"H-WTopk","k":20,"seed":5}`)
	distID := postBuild(t, srv.URL, `{"name":"hdist","dataset":"z","method":"H-WTopk","k":20,"seed":5,"distributed":true}`)
	j1, _ := s.jobs.get(simID)
	j2, _ := s.jobs.get(distID)
	if !j1.Wait(60*time.Second) || !j2.Wait(60*time.Second) {
		t.Fatal("jobs did not finish")
	}
	sim := getJob(t, srv.URL, simID)
	dst := getJob(t, srv.URL, distID)
	if sim.State != JobDone || dst.State != JobDone {
		t.Fatalf("states: sim=%+v dist=%+v", sim, dst)
	}
	if sim.Rounds != 3 || dst.Rounds != 3 {
		t.Fatalf("rounds: sim=%d dist=%d, want 3", sim.Rounds, dst.Rounds)
	}
	if sim.ModelCommBytes == 0 || sim.ModelCommBytes != dst.ModelCommBytes {
		t.Errorf("model comm: sim=%d dist=%d", sim.ModelCommBytes, dst.ModelCommBytes)
	}
	if dst.WireBytes <= 0 || dst.CommBytes != dst.WireBytes {
		t.Errorf("distributed wire bytes: wire=%d comm=%d", dst.WireBytes, dst.CommBytes)
	}
	if len(sim.PerRound) != 3 || len(dst.PerRound) != 3 {
		t.Fatalf("per-round: sim=%d dist=%d entries", len(sim.PerRound), len(dst.PerRound))
	}
	for i := range dst.PerRound {
		if dst.PerRound[i].ModelCommBytes != sim.PerRound[i].ModelCommBytes {
			t.Errorf("round %d model comm: dist=%d sim=%d", i+1,
				dst.PerRound[i].ModelCommBytes, sim.PerRound[i].ModelCommBytes)
		}
		if dst.PerRound[i].WireBytes <= 0 {
			t.Errorf("round %d has no wire bytes", i+1)
		}
		if sim.PerRound[i].WireBytes != 0 {
			t.Errorf("simulated round %d reports wire bytes", i+1)
		}
	}
	if sim.CandidateSetSize <= 0 || sim.CandidateSetSize != dst.CandidateSetSize {
		t.Errorf("candidate set: sim=%d dist=%d", sim.CandidateSetSize, dst.CandidateSetSize)
	}

	// Both publishes serve identical estimates (exact method, same seed).
	e1, _ := s.reg.Lookup("hsim")
	e2, _ := s.reg.Lookup("hdist")
	v1, _ := e1.Range(0, 1<<10)
	v2, _ := e2.Range(0, 1<<10)
	if v1 != v2 {
		t.Errorf("simulated and distributed estimates differ: %v vs %v", v1, v2)
	}

	// /v1/stats surfaces fleet saturation when a coordinator is configured.
	res, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var stats struct {
		Fleet *dist.FleetStats `json:"fleet"`
	}
	if err := json.NewDecoder(res.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Fleet == nil {
		t.Fatal("/v1/stats missing fleet section")
	}
	if len(stats.Fleet.Workers) != 3 {
		t.Errorf("fleet workers: %d, want 3", len(stats.Fleet.Workers))
	}
	if stats.Fleet.ActiveBuilds != 0 || stats.Fleet.PendingSplits != 0 {
		t.Errorf("fleet not idle after builds: %+v", stats.Fleet)
	}
	seenLatency := false
	for _, w := range stats.Fleet.Workers {
		if w.RPCEWMAMillis > 0 {
			seenLatency = true
		}
	}
	if !seenLatency {
		t.Error("no worker reports an RPC-latency EWMA")
	}
}

// TestDistributedRequiresCoordinator: "distributed": true without a
// coordinator is a client error.
func TestDistributedRequiresCoordinator(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds, _ := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{Records: 1 << 10, Domain: 1 << 8, Seed: 1})
	s.RegisterDataset("z", ds)
	srv := httptest.NewServer(s)
	defer srv.Close()
	res, err := http.Post(srv.URL+"/v1/build", "application/json",
		bytes.NewBufferString(`{"name":"h","dataset":"z","method":"Send-V","distributed":true}`))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400", res.StatusCode)
	}
}

// TestJobCancel: DELETE /v1/jobs/{id} cancels a running build and the
// job lands in state "canceled".
func TestJobCancel(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A large dataset so the build is reliably still running when the
	// cancel lands.
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 21, Domain: 1 << 16, Alpha: 1.1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterDataset("big", ds)
	srv := httptest.NewServer(s)
	defer srv.Close()

	id := postBuild(t, srv.URL, `{"name":"h","dataset":"big","method":"Send-Sketch","k":30,"seed":2}`)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", res.StatusCode)
	}
	j, _ := s.jobs.get(id)
	if !j.Wait(30 * time.Second) {
		t.Fatal("canceled job did not finish")
	}
	if v := getJob(t, srv.URL, id); v.State != JobCanceled {
		t.Fatalf("state after cancel: %q (err=%q)", v.State, v.Error)
	}
	// Canceling a finished job is a no-op.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
	res, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out struct {
		Canceling bool     `json:"canceling"`
		State     JobState `json:"state"`
	}
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Canceling || out.State != JobCanceled {
		t.Fatalf("re-cancel: %+v", out)
	}
}

// TestServerCloseCancelsJobs: Close cancels running jobs and waits for
// their goroutines.
func TestServerCloseCancelsJobs(t *testing.T) {
	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 21, Domain: 1 << 16, Alpha: 1.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RegisterDataset("big", ds)
	srv := httptest.NewServer(s)
	defer srv.Close()
	id := postBuild(t, srv.URL, `{"name":"h","dataset":"big","method":"Send-Sketch","k":30,"seed":3}`)

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain job goroutines")
	}
	j, _ := s.jobs.get(id)
	if v := s.jobs.view(j); v.State != JobCanceled && v.State != JobDone {
		t.Fatalf("state after Close: %q", v.State)
	}
}

// stallTransport blocks every map RPC until released, so builds pile up
// pending splits — the harness for the backpressure shed.
type stallTransport struct {
	release chan struct{}
}

func (s *stallTransport) MapSplits(ctx context.Context, addr string, req *dist.MapRequest) (*dist.MapResponse, int64, int64, error) {
	select {
	case <-s.release:
	case <-ctx.Done():
	}
	return nil, 0, 0, ctx.Err()
}
func (s *stallTransport) Release(context.Context, string, *dist.ReleaseRequest) error { return nil }

// TestBuildBackpressure: distributed POST /v1/build is shed with 429 +
// Retry-After once pending splits per alive worker reach
// maxPendingPerWorker. One worker of capacity 1 takes one call's splits;
// 128 splits leave the rest well past the threshold.
func TestBuildBackpressure(t *testing.T) {
	tr := &stallTransport{release: make(chan struct{})}
	coord := dist.NewCoordinator(tr, dist.Config{})
	coord.Register("w0", "fake://w0", 1)
	s, err := NewServer(Config{Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer close(tr.release)
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 17, Domain: 1 << 10, Alpha: 1.1, Seed: 9, ChunkSize: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSplits(0) < 2*maxPendingPerWorker {
		t.Fatalf("want >= %d splits, have %d", 2*maxPendingPerWorker, ds.NumSplits(0))
	}
	s.RegisterDataset("z", ds)
	srv := httptest.NewServer(s)
	defer srv.Close()

	// First build is admitted and stalls with most splits pending.
	postBuild(t, srv.URL, `{"name":"h1","dataset":"z","method":"Send-V","distributed":true}`)
	deadline := time.Now().Add(10 * time.Second)
	for coord.FleetStats().PendingSplits/1 < maxPendingPerWorker {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never saturated: %+v", coord.FleetStats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Second distributed build is shed.
	res, err := http.Post(srv.URL+"/v1/build", "application/json",
		bytes.NewBufferString(`{"name":"h2","dataset":"z","method":"Send-V","distributed":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated build: HTTP %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	// Simulated builds are not shed by fleet saturation.
	postBuild(t, srv.URL, `{"name":"h3","dataset":"z","method":"TwoLevel-S"}`)
}
