package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"wavelethist"
	"wavelethist/ha"
	"wavelethist/internal/obs"
	"wavelethist/serve"
)

// TestNewRouterParsesTopology checks the -shards spec parser: ';' between
// shards, ',' between a shard's primary and replicas, whitespace ignored.
func TestNewRouterParsesTopology(t *testing.T) {
	rt, err := newRouter("http://p1, http://r1 ; http://p2", ha.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sh := rt.Shard("anything")
	if sh == nil || sh.Primary == "" {
		t.Fatalf("no shard resolved: %+v", sh)
	}
	if _, err := newRouter("  ", ha.RouterConfig{}); err == nil {
		t.Fatal("empty -shards accepted")
	}
	if _, err := newRouter(";;;", ha.RouterConfig{}); err == nil {
		t.Fatal("spec with no shards accepted")
	}
}

// TestRouterMetricsEndpoint fronts one real shard with the router and
// checks routed traffic shows up in the router's GET /metrics exposition
// (per-route latency histograms plus the forwarding counters).
func TestRouterMetricsEndpoint(t *testing.T) {
	s, err := serve.NewServer(serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 12, Domain: 1 << 10, Alpha: 1.1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wavelethist.Build(ds, wavelethist.TwoLevelS, wavelethist.Options{K: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Publish("demo", res.Histogram); err != nil {
		t.Fatal(err)
	}
	shardSrv := httptest.NewServer(s)
	defer shardSrv.Close()

	rt, err := newRouter(shardSrv.URL, ha.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	for _, path := range []string{"/v1/hist/demo/point?key=1", "/v1/hist", "/v1/stats"} {
		resp, err := http.Get(rtSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
	}

	mres, err := http.Get(rtSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	body, _ := io.ReadAll(mres.Body)
	if mres.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", mres.StatusCode, body)
	}
	fams, err := obs.Lint(string(body))
	if err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	if err := obs.RequireFamilies(fams,
		"waverouter_request_duration_seconds", "waverouter_requests_total",
		"waverouter_proxied_total", "waverouter_failovers_total", "waverouter_shards",
		"wavehist_batch_decode_total",
	); err != nil {
		t.Fatal(err)
	}
	var pointCount float64
	for _, sm := range fams["waverouter_requests_total"].Samples {
		if sm.Labels["route"] == "point" {
			pointCount = sm.Value
		}
	}
	if pointCount < 1 {
		t.Errorf("waverouter_requests_total{route=point} = %v, want >= 1", pointCount)
	}
	var proxied float64
	for _, sm := range fams["waverouter_proxied_total"].Samples {
		proxied = sm.Value
	}
	if proxied < 3 {
		t.Errorf("waverouter_proxied_total = %v, want >= 3", proxied)
	}

	// The topology endpoint still reports the raw counters.
	tres, err := http.Get(rtSrv.URL + "/v1/router")
	if err != nil {
		t.Fatal(err)
	}
	defer tres.Body.Close()
	var topo struct {
		Proxied uint64 `json:"proxied"`
	}
	if err := json.NewDecoder(tres.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	if topo.Proxied < 3 {
		t.Errorf("topology proxied = %d, want >= 3", topo.Proxied)
	}
}
