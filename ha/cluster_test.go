package ha

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/serve"
)

func buildTestHist(t testing.TB, seed uint64) *wavelethist.Histogram {
	t.Helper()
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 20000, Domain: 1 << 12, Alpha: 1.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wavelethist.Build(ds, wavelethist.TwoLevelS, wavelethist.Options{K: 40, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Histogram
}

func newNode(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s, err := serve.NewServer(cfg)
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
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: HTTP %d (want %d): %s", url, resp.StatusCode, wantCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return out
}

func postJSON(t *testing.T, url string, req any, wantCode int) map[string]any {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("POST %s: HTTP %d (want %d): %s", url, resp.StatusCode, wantCode, body)
	}
	var out map[string]any
	if len(body) > 0 {
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("POST %s: bad JSON %q: %v", url, body, err)
		}
	}
	return out
}

// TestReplicaSync: the pull loop carries publishes, republishes, and
// drops from a primary to a read replica, with the registry version as
// the replication cursor and sync state surfaced in the replica's stats.
func TestReplicaSync(t *testing.T) {
	pSrv, pTS := newNode(t, serve.Config{})
	rSrv, rTS := newNode(t, serve.Config{ReadOnly: true})
	rep := NewReplica(rSrv, pTS.URL, 50*time.Millisecond)

	h := buildTestHist(t, 1)
	if _, err := pSrv.Registry().Publish("a", h); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := rep.SyncOnce(ctx); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if rep.Version() != pSrv.Registry().Version() {
		t.Fatalf("cursor %d, primary at %d", rep.Version(), pSrv.Registry().Version())
	}
	got, ok := rSrv.Registry().Lookup("a")
	if !ok {
		t.Fatal("replica missing histogram after sync")
	}
	for _, key := range []int64{0, 17, 512, 4095} {
		if got.H.PointEstimate(key) != h.PointEstimate(key) {
			t.Fatalf("replicated estimate differs at key %d", key)
		}
	}

	// Republish + new publish, then a drop — all carried by later pulls.
	if _, err := pSrv.Registry().Publish("a", buildTestHist(t, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := pSrv.Registry().Publish("b", buildTestHist(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := rSrv.Registry().Lookup("b"); !ok {
		t.Fatal("new publish did not replicate")
	}
	pSrv.Registry().Drop("b")
	if err := rep.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := rSrv.Registry().Lookup("b"); ok {
		t.Fatal("drop did not propagate")
	}

	// The replica's stats expose the sync state.
	stats := getJSON(t, rTS.URL+"/v1/stats", http.StatusOK)
	repl, ok := stats["replication"].(map[string]any)
	if !ok {
		t.Fatalf("no replication section in stats: %v", stats)
	}
	if repl["primary"] != pTS.URL || uint64(repl["version"].(float64)) != rep.Version() {
		t.Fatalf("replication stats: %v", repl)
	}

	// A dead primary turns into a reported error, not a wedged replica.
	pTS.Close()
	if err := rep.SyncOnce(ctx); err == nil {
		t.Fatal("sync against a dead primary succeeded")
	}
	if st := rSrv.ReplStatus(); st.Error == "" {
		t.Fatal("sync failure not recorded in replication status")
	}
}

// cluster is two shards, each a primary plus one following replica,
// fronted by a router — the smallest real topology.
type cluster struct {
	router    *Router
	routerTS  *httptest.Server
	primaries [2]*httptest.Server
	replicas  [2]*serve.Server
	reps      [2]*Replica
}

func newCluster(t *testing.T) *cluster {
	t.Helper()
	c := &cluster{}
	var shards []Shard
	for i := 0; i < 2; i++ {
		_, pTS := newNode(t, serve.Config{Shard: fmt.Sprintf("s%d", i)})
		rSrv, rTS := newNode(t, serve.Config{ReadOnly: true, Shard: fmt.Sprintf("s%d", i)})
		rep := NewReplica(rSrv, pTS.URL, 25*time.Millisecond)
		rep.Start()
		t.Cleanup(rep.Stop)
		c.primaries[i] = pTS
		c.replicas[i] = rSrv
		c.reps[i] = rep
		shards = append(shards, Shard{
			ID:       fmt.Sprintf("s%d", i),
			Primary:  pTS.URL,
			Replicas: []string{rTS.URL},
		})
	}
	router, err := NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	c.router = router
	c.routerTS = httptest.NewServer(router)
	t.Cleanup(c.routerTS.Close)
	return c
}

// nameOn finds a histogram name the ring places on the given shard.
func (c *cluster) nameOn(t *testing.T, shard string) string {
	t.Helper()
	for i := 0; i < 256; i++ {
		name := fmt.Sprintf("hist-%d", i)
		if c.router.Shard(name).ID == shard {
			return name
		}
	}
	t.Fatalf("no candidate name lands on shard %s", shard)
	return ""
}

func (c *cluster) waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicaRefusesUnknownBlob: a replicated entry's blob names its kind
// by its magic, and the replica refuses a blob whose magic it does not
// know. The sync fails with an error naming the entry, and the replica
// keeps its last good state: the entry it served and its cursor.
func TestReplicaRefusesUnknownBlob(t *testing.T) {
	h := buildTestHist(t, 1)
	good, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var reply atomic.Pointer[dist.ReplPullResponse]
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", dist.ContentTypeBinary)
		w.Write(dist.EncodeReplPullResponse(reply.Load()))
	}))
	t.Cleanup(primary.Close)
	rSrv, _ := newNode(t, serve.Config{ReadOnly: true})
	rep := NewReplica(rSrv, primary.URL, time.Second)
	ctx := context.Background()

	reply.Store(&dist.ReplPullResponse{Version: 1, Epoch: 5, Names: []string{"a"},
		Entries: []dist.ReplEntry{{Name: "a", Version: 1, Blob: good}}})
	if err := rep.SyncOnce(ctx); err != nil {
		t.Fatal(err)
	}
	unknown := append([]byte("WHAT"), good[4:]...)
	reply.Store(&dist.ReplPullResponse{Version: 2, Epoch: 5, Since: 1, Names: []string{"a"},
		Entries: []dist.ReplEntry{{Name: "a", Version: 2, Blob: unknown}}})
	err = rep.SyncOnce(ctx)
	if err == nil || !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("sync of an unknown blob: %v; want an error naming \"a\" and its magic", err)
	}
	if rep.Version() != 1 {
		t.Errorf("cursor advanced to %d past the refused entry", rep.Version())
	}
	e, ok := rSrv.Registry().Lookup("a")
	if !ok {
		t.Fatal("refused entry dropped its last good state")
	}
	for _, key := range []int64{0, 17, 512, 4095} {
		if e.H.PointEstimate(key) != h.PointEstimate(key) {
			t.Fatalf("key %d: the replica no longer serves its last good state", key)
		}
	}
}

// TestClusterFailoverSmoke is the end-to-end acceptance path: build
// through the router onto each shard's primary, watch the histograms
// become queryable on the replicas within the sync cycle, kill one
// primary, and verify routed reads keep answering — bit-identically —
// through the replica, then promote the replica into a writable primary.
func TestClusterFailoverSmoke(t *testing.T) {
	c := newCluster(t)
	base := c.routerTS.URL

	name0 := c.nameOn(t, "s0")
	name1 := c.nameOn(t, "s1")

	// Dataset broadcast reaches every primary; builds then land on
	// whichever shard owns each name.
	postJSON(t, base+"/v1/datasets", map[string]any{
		"name": "ds", "kind": "zipf", "records": 20000, "domain": 4096, "seed": 7,
	}, http.StatusCreated)
	for name, shard := range map[string]string{name0: "s0", name1: "s1"} {
		acc := postJSON(t, base+"/v1/build", map[string]any{
			"name": name, "dataset": "ds", "method": "Send-V", "k": 40, "seed": 9,
		}, http.StatusAccepted)
		if acc["shard"] != shard {
			t.Fatalf("build of %s routed to shard %v, want %s", name, acc["shard"], shard)
		}
		// The job is resolvable through the router, pinned to its shard
		// (shards number jobs independently, so the tag disambiguates).
		id := acc["job"].(string)
		c.waitFor(t, "job "+id, func() bool {
			job := getJSON(t, base+"/v1/jobs/"+id+"?shard="+shard, http.StatusOK)
			if job["error"] != nil && job["error"] != "" {
				t.Fatalf("job %s failed: %v", id, job["error"])
			}
			return job["state"] == "done"
		})
	}

	// Both names visible in the merged listing.
	list := getJSON(t, base+"/v1/hist", http.StatusOK)
	hists := list["histograms"].([]any)
	if len(hists) != 2 {
		t.Fatalf("merged listing has %d histograms: %v", len(hists), list)
	}

	// Record routed estimates while both primaries are alive.
	pt0 := getJSON(t, base+"/v1/hist/"+name0+"/point?key=123", http.StatusOK)["estimate"].(float64)
	pt1 := getJSON(t, base+"/v1/hist/"+name1+"/point?key=123", http.StatusOK)["estimate"].(float64)
	rg0 := getJSON(t, base+"/v1/hist/"+name0+"/range?lo=0&hi=500", http.StatusOK)["estimate"].(float64)

	// The background pull loops make the builds queryable on the replicas.
	c.waitFor(t, "replica catch-up", func() bool {
		_, ok0 := c.replicas[0].Registry().Lookup(name0)
		_, ok1 := c.replicas[1].Registry().Lookup(name1)
		return ok0 && ok1
	})

	// Kill shard 0's primary. Reads keep succeeding through the replica
	// with identical answers; the router records the failovers.
	c.primaries[0].Close()
	if got := getJSON(t, base+"/v1/hist/"+name0+"/point?key=123", http.StatusOK)["estimate"].(float64); got != pt0 {
		t.Fatalf("post-failover point estimate %v, want %v", got, pt0)
	}
	if got := getJSON(t, base+"/v1/hist/"+name0+"/range?lo=0&hi=500", http.StatusOK)["estimate"].(float64); got != rg0 {
		t.Fatalf("post-failover range estimate %v, want %v", got, rg0)
	}
	topo := getJSON(t, base+"/v1/router", http.StatusOK)
	if topo["failovers"].(float64) == 0 {
		t.Fatalf("router recorded no failovers: %v", topo)
	}

	// Cross-shard batch: one round trip spanning the degraded shard (via
	// its replica) and the healthy one.
	batch := postJSON(t, base+"/v1/query", map[string]any{
		"queries": []map[string]any{
			{"name": name0, "op": "point", "key": 123},
			{"name": name1, "op": "point", "key": 123},
			{"name": name0, "op": "range", "lo": 0, "hi": 500},
		},
	}, http.StatusOK)
	results := batch["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("batch returned %d results", len(results))
	}
	for i, want := range []float64{pt0, pt1, rg0} {
		res := results[i].(map[string]any)
		if e, _ := res["error"].(string); e != "" {
			t.Fatalf("batch result %d errored: %s", i, e)
		}
		if res["estimate"].(float64) != want {
			t.Fatalf("batch result %d = %v, want %v", i, res["estimate"], want)
		}
	}

	// Stats fan-out still answers for every shard (s0 via its replica).
	stats := getJSON(t, base+"/v1/stats", http.StatusOK)
	shards := stats["shards"].(map[string]any)
	if _, ok := shards["s0"]; !ok {
		t.Fatalf("stats lost shard s0: %v", stats)
	}
	if _, ok := shards["s1"]; !ok {
		t.Fatalf("stats lost shard s1: %v", stats)
	}

	// Writes never fail over — with the primary dead they fail loudly.
	postJSON(t, base+"/v1/hist/"+name0+"/updates", map[string]any{
		"updates": []map[string]any{{"key": 1, "delta": 1}},
	}, http.StatusBadGateway)

	// Promote the surviving replica: it stops following and goes
	// writable, and the data it serves is the replicated lineage.
	c.reps[0].Promote()
	if c.replicas[0].ReadOnly() {
		t.Fatal("replica still read-only after promotion")
	}
	rTS := httptest.NewServer(c.replicas[0])
	defer rTS.Close()
	postJSON(t, rTS.URL+"/v1/hist/"+name0+"/updates", map[string]any{
		"updates": []map[string]any{{"key": 1, "delta": 1}},
	}, http.StatusOK)
}
