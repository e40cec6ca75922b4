package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"wavelethist/internal/obs"
)

// TestDaemonServesDemo boots the daemon on a loopback listener with the
// demo bootstrap and checks the full query surface end to end.
func TestDaemonServesDemo(t *testing.T) {
	srv, err := newDaemon("127.0.0.1:0", "", true)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go serveOn(srv, ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	get := func(path string) map[string]any {
		t.Helper()
		var resp *http.Response
		for i := 0; ; i++ {
			resp, err = http.Get(base + path)
			if err == nil {
				break
			}
			if i > 50 {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return out
	}

	if h := get("/healthz"); h["ok"] != true {
		t.Fatalf("healthz: %v", h)
	}
	p := get("/v1/hist/demo/point?key=1")
	if _, ok := p["estimate"].(float64); !ok {
		t.Fatalf("demo point: %v", p)
	}
	r := get("/v1/hist/demo/range?lo=0&hi=4095")
	// The full-domain range estimate of a 2^18-record dataset must be
	// close to the record count (w[0] carries the total mass).
	if est := r["estimate"].(float64); est < float64(1<<17) {
		t.Fatalf("demo full-range estimate = %v, want ~%d", est, 1<<18)
	}
	list := get("/v1/hist")
	if fmt.Sprint(list["registry_version"]) == "0" {
		t.Fatalf("demo bootstrap did not publish: %v", list)
	}
}

// TestDaemonDistributedBuild boots the daemon with -workers 2 and runs a
// distributed build end to end through the HTTP API.
func TestDaemonDistributedBuild(t *testing.T) {
	srv, s, err := newDaemonDist("127.0.0.1:0", "", false, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go serveOn(srv, ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	post := func(path, body string, wantCode int) map[string]any {
		t.Helper()
		var resp *http.Response
		for i := 0; ; i++ {
			resp, err = http.Post(base+path, "application/json", strings.NewReader(body))
			if err == nil {
				break
			}
			if i > 50 {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, raw)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		return out
	}

	post("/v1/datasets", `{"name":"z","kind":"zipf","records":16384,"domain":1024,"alpha":1.1,"seed":9}`, http.StatusCreated)
	b := post("/v1/build", `{"name":"h","dataset":"z","method":"Send-V","k":20,"seed":9,"distributed":true}`, http.StatusAccepted)
	jobURL := fmt.Sprint(b["status_url"])

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + jobURL)
		if err != nil {
			t.Fatal(err)
		}
		var jv map[string]any
		json.NewDecoder(resp.Body).Decode(&jv)
		resp.Body.Close()
		if jv["state"] == "done" {
			if jv["mode"] != "distributed" {
				t.Fatalf("job mode: %v", jv)
			}
			if wb, _ := jv["wire_bytes"].(float64); wb <= 0 {
				t.Fatalf("no wire bytes measured: %v", jv)
			}
			break
		}
		if jv["state"] == "failed" || jv["state"] == "canceled" {
			t.Fatalf("job failed: %v", jv)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %v", jv)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Fleet listing is mounted.
	resp, err := http.Get(base + "/dist/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wl map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&wl); err != nil {
		t.Fatal(err)
	}
	if ws, _ := wl["workers"].([]any); len(ws) != 2 {
		t.Fatalf("workers listing: %v", wl)
	}
}

func TestDaemonRejectsBadSnapshotDir(t *testing.T) {
	// A file in place of the snapshot dir must fail startup.
	f := t.TempDir() + "/occupied"
	if err := writeFile(f); err != nil {
		t.Fatal(err)
	}
	if _, err := newDaemon("127.0.0.1:0", f, false); err == nil {
		t.Fatal("newDaemon accepted a file as snapshot dir")
	}
}

func writeFile(path string) error {
	return os.WriteFile(path, []byte("x"), 0o644)
}

// TestDaemonMetricsEndpoint boots the daemon with an in-process worker
// fleet, drives a query and a distributed build, and checks GET /metrics
// serves a lint-clean exposition covering query, build, cache, and
// replication families.
func TestDaemonMetricsEndpoint(t *testing.T) {
	srv, s, err := newDaemonDist("127.0.0.1:0", "", true, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go serveOn(srv, ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	var resp *http.Response
	for i := 0; ; i++ {
		resp, err = http.Get(base + "/v1/hist/demo/point?key=1")
		if err == nil {
			break
		}
		if i > 50 {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp.Body.Close()

	mres, err := http.Get(base + "/metrics")
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
		"wavehist_query_duration_seconds", "wavehist_queries_total",
		"wavehist_builds_total", "wavehist_registry_version",
		"wavehist_read_only", "wavehist_repl_lag_versions",
		"wavehist_dist_alive_workers", "wavehist_dist_builds_total",
		"wavehist_batch_decode_total", "wavehist_maintainer_seeds_total",
	); err != nil {
		t.Fatal(err)
	}
}
