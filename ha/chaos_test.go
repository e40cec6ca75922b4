package ha

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wavelethist"
	"wavelethist/internal/chaos"
	"wavelethist/serve"
)

// The chaos suite drives the self-healing tier through real failures:
// every shard target sits behind a fault-injecting proxy
// (internal/chaos), the primary is killed mid-replication, and the
// assertions are the paper-serving invariants — routed reads stay
// bit-identical through auto-promotion, a replica that never saw a
// histogram answers 404 rather than anything stale, and a resurrected
// old primary is fenced read-only instead of forking the lineage.

func waitUntil(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// routedRead GETs a point estimate through the router, returning the
// HTTP status (0 on transport error) and the estimate when 200.
func routedRead(base, name string) (int, float64) {
	res, err := http.Get(base + "/v1/hist/" + name + "/point?key=123")
	if err != nil {
		return 0, 0
	}
	defer res.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
		return res.StatusCode, 0
	}
	if res.StatusCode != http.StatusOK {
		return res.StatusCode, 0
	}
	est, _ := out["estimate"].(float64)
	return res.StatusCode, est
}

// TestChaosFailoverPromoteResurrect is the acceptance path of the
// self-healing tier, end to end on one shard:
//
//  1. A replica is left exactly one sync behind (histogram "behind" was
//     published after its last pull).
//  2. The primary is killed (server closed AND its proxy black-holed).
//  3. Routed reads of the replicated histogram keep answering with
//     bit-identical estimates; the un-replicated one 404s — never a
//     stale or fabricated answer.
//  4. The health checker detects the dead primary and auto-promotes the
//     replica with an epoch fencing token; writes come back. Both MTTRs
//     (first routed read, first routed write) are measured.
//  5. The old primary resurrects from its snapshot directory — writable,
//     with a bumped persisted epoch, still holding "behind" — and is
//     demoted read-only by the router's fence before it can accept a
//     write. Reads keep coming from the promoted lineage.
func TestChaosFailoverPromoteResurrect(t *testing.T) {
	dir := t.TempDir()
	pSrv, pTS := newNode(t, serve.Config{Shard: "s0", SnapshotDir: dir})
	pProxy := chaos.New(pTS.URL, chaos.Config{Seed: 11})
	pFront := httptest.NewServer(pProxy)
	defer pFront.Close()

	rSrv, rTS := newNode(t, serve.Config{ReadOnly: true, Shard: "s0"})
	rProxy := chaos.New(rTS.URL, chaos.Config{Seed: 12})
	rFront := httptest.NewServer(rProxy)
	defer rFront.Close()

	rep := NewReplica(rSrv, pTS.URL, 20*time.Millisecond) // manual pulls only

	// Replicate "alive", then publish "behind" WITHOUT syncing: the
	// replica is now one full sync behind the primary.
	if _, err := pSrv.Registry().Publish("alive", buildTestHist(t, 1)); err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatalf("seed sync: %v", err)
	}
	if _, err := pSrv.Registry().Publish("behind", buildTestHist(t, 2)); err != nil {
		t.Fatal(err)
	}
	if rep.Version() >= pSrv.Registry().Version() {
		t.Fatalf("replica cursor %d not behind primary %d", rep.Version(), pSrv.Registry().Version())
	}

	router, err := NewRouterConfig([]Shard{{
		ID: "s0", Primary: pFront.URL, Replicas: []string{rFront.URL},
	}}, RouterConfig{ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	router.readTimeout = time.Second // the checker never reads these two
	router.breakers = newBreakerSet(5)
	routerTS := httptest.NewServer(router)
	defer routerTS.Close()
	base := routerTS.URL

	// Let the checker learn the shard: both targets probed and the fence
	// pinned to the primary's persisted epoch.
	waitUntil(t, "health checker warm-up", func() bool {
		health, fences := router.health.view()
		probed := 0
		for _, th := range health {
			if th.Probes > 0 && th.Up {
				probed++
			}
		}
		return probed == 2 && fences["s0"] == pSrv.Epoch()
	})

	status, pt := routedRead(base, "alive")
	if status != http.StatusOK {
		t.Fatalf("healthy routed read: HTTP %d", status)
	}
	rg := getJSON(t, base+"/v1/hist/alive/range?lo=0&hi=500", http.StatusOK)["estimate"].(float64)
	oldEpoch := rSrv.Epoch()

	// --- Kill the primary: process gone, address black-holed. ---
	killedAt := time.Now()
	pTS.Close()
	pProxy.SetBlackhole(true)

	// Reads survive immediately via replica failover, bit-identically.
	var mttrRead time.Duration
	waitUntil(t, "first routed read after kill", func() bool {
		st, est := routedRead(base, "alive")
		if st != http.StatusOK {
			return false
		}
		if est != pt {
			t.Fatalf("post-kill estimate %v, want %v", est, pt)
		}
		mttrRead = time.Since(killedAt)
		return true
	})

	// The never-replicated histogram 404s — zero stale responses.
	if st, _ := routedRead(base, "behind"); st != http.StatusNotFound {
		t.Fatalf("un-replicated histogram answered HTTP %d, want 404", st)
	}

	// Auto-promotion: the replica goes writable under a fencing token.
	waitUntil(t, "auto-promotion of the replica", func() bool { return !rSrv.ReadOnly() })
	if rSrv.Epoch() <= oldEpoch {
		t.Fatalf("promotion did not advance the epoch: %d -> %d", oldEpoch, rSrv.Epoch())
	}

	// Write availability is restored through the router.
	var mttrWrite time.Duration
	payload := `{"updates":[{"key":1,"delta":1}]}`
	waitUntil(t, "first routed write after kill", func() bool {
		res, err := http.Post(base+"/v1/hist/alive/updates", "application/json", strings.NewReader(payload))
		if err != nil {
			return false
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return false
		}
		mttrWrite = time.Since(killedAt)
		return true
	})
	t.Logf("failover MTTR: first read %v, first write %v", mttrRead, mttrWrite)
	if mttrRead > 5*time.Second || mttrWrite > 8*time.Second {
		t.Fatalf("MTTR out of budget: read %v, write %v", mttrRead, mttrWrite)
	}

	// The topology swap is visible: the replica's address now leads the
	// shard and the promotion was counted.
	topo := getJSON(t, base+"/v1/router", http.StatusOK)
	sh := topo["shards"].([]any)[0].(map[string]any)
	if sh["primary"] != rFront.URL {
		t.Fatalf("topology primary = %v, want %v", sh["primary"], rFront.URL)
	}
	if topo["promotions"].(float64) < 1 {
		t.Fatalf("no promotion recorded: %v", topo)
	}
	if topo["topology_version"].(float64) < 2 {
		t.Fatalf("topology version did not advance: %v", topo)
	}

	// --- Resurrect the old primary from its data directory. ---
	p2Srv, p2TS := newNode(t, serve.Config{Shard: "s0", SnapshotDir: dir})
	if p2Srv.ReadOnly() {
		t.Fatal("resurrected primary started read-only; the fence should do the demoting")
	}
	if _, ok := p2Srv.Registry().Lookup("behind"); !ok {
		t.Fatal("resurrected primary lost its persisted histograms")
	}
	pProxy.SetBlackhole(false)
	pProxy.SetUpstream(p2TS.URL)

	// The router's fence demotes it read-only: died a primary, returns a
	// replica. No split brain.
	waitUntil(t, "resurrected primary fenced read-only", func() bool { return p2Srv.ReadOnly() })
	postJSON(t, p2TS.URL+"/v1/hist/alive/updates", map[string]any{
		"updates": []map[string]any{{"key": 1, "delta": 1}},
	}, http.StatusForbidden)

	// Reads still come from the promoted lineage, bit-identically; the
	// resurrected node's private "behind" histogram stays invisible.
	if st, est := routedRead(base, "alive"); st != http.StatusOK || est != pt {
		t.Fatalf("post-resurrection read: HTTP %d estimate %v, want 200 %v", st, est, pt)
	}
	if got := getJSON(t, base+"/v1/hist/alive/range?lo=0&hi=500", http.StatusOK)["estimate"].(float64); got != rg {
		t.Fatalf("post-resurrection range estimate %v, want %v", got, rg)
	}
	if st, _ := routedRead(base, "behind"); st != http.StatusNotFound {
		t.Fatalf("fenced node's un-replicated histogram leaked: HTTP %d, want 404", st)
	}
}

// TestChaosFaultyPrimaryReadsStayCorrect runs routed reads through a
// primary proxy injecting seeded 5xx answers, connection drops, and
// truncated bodies, with a clean fully-synced replica behind the shard:
// every read must still return the exact healthy-path estimate — the
// breaker and replica failover absorb the faults, never surfacing them
// or a wrong answer to the client.
func TestChaosFaultyPrimaryReadsStayCorrect(t *testing.T) {
	pSrv, pTS := newNode(t, serve.Config{Shard: "s0"})
	rSrv, rTS := newNode(t, serve.Config{ReadOnly: true, Shard: "s0"})
	rep := NewReplica(rSrv, pTS.URL, 20*time.Millisecond)

	h := buildTestHist(t, 3)
	if _, err := pSrv.Registry().Publish("steady", h); err != nil {
		t.Fatal(err)
	}
	if err := rep.SyncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := h.PointEstimate(123)

	pProxy := chaos.New(pTS.URL, chaos.Config{
		Seed: 99, ErrorProb: 0.35, DropProb: 0.25, PartialProb: 0.15,
	})
	pFront := httptest.NewServer(pProxy)
	defer pFront.Close()

	router, err := NewRouterConfig([]Shard{{
		ID: "s0", Primary: pFront.URL, Replicas: []string{rTS.URL},
	}}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	router.readTimeout = time.Second
	router.breakers = newBreakerSet(7)
	routerTS := httptest.NewServer(router)
	defer routerTS.Close()

	for i := 0; i < 30; i++ {
		st, est := routedRead(routerTS.URL, "steady")
		if st != http.StatusOK {
			t.Fatalf("read %d through faulty primary: HTTP %d", i, st)
		}
		if est != want {
			t.Fatalf("read %d: estimate %v, want %v", i, est, want)
		}
	}
	if router.failovers.Load() == 0 {
		t.Fatal("faults injected but the router never failed over")
	}
	c := pProxy.Counts()
	if c.Dropped+c.Errored+c.Partial == 0 {
		t.Fatalf("chaos proxy injected nothing: %+v", c)
	}
}

// TestChaosPromoteRaceWithPull races POST /v1/promote against an
// in-flight replication pull stream (run under -race in CI). The
// promotion lock guarantees the replica's registry is always a
// prefix-consistent view — every histogram present is bit-identical to
// the primary's, presence is a contiguous prefix of the publish order,
// and nothing is half-applied when the epoch flips.
func TestChaosPromoteRaceWithPull(t *testing.T) {
	pSrv, pTS := newNode(t, serve.Config{})
	rSrv, rTS := newNode(t, serve.Config{ReadOnly: true})
	rep := NewReplica(rSrv, pTS.URL, time.Millisecond)

	const n = 12
	names := make([]string, n)
	blobs := make([][]byte, n)
	hists := make([]*wavelethist.Histogram, n)
	for i := range names {
		names[i] = fmt.Sprintf("h%03d", i)
		hists[i] = buildTestHist(t, uint64(i+1))
		b, err := hists[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = b
	}
	// Seed one entry so the first pull has work.
	if _, err := pSrv.Registry().Publish(names[0], hists[0]); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // publisher: keeps the pull stream busy during promotion
		defer wg.Done()
		for i := 1; i < n; i++ {
			if _, err := pSrv.Registry().Publish(names[i], hists[i]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	go func() { // syncer: pull-and-apply until promotion cuts it off
		defer wg.Done()
		ctx := context.Background()
		for {
			err := rep.SyncOnce(ctx)
			if errors.Is(err, serve.ErrNotReplica) {
				return
			}
			if err != nil {
				t.Errorf("sync: %v", err)
				return
			}
		}
	}()

	time.Sleep(3 * time.Millisecond)
	token := rSrv.Epoch() + 1
	postJSON(t, rTS.URL+"/v1/promote", map[string]any{"epoch": token}, http.StatusOK)
	wg.Wait()

	if rSrv.ReadOnly() {
		t.Fatal("replica still read-only after promotion")
	}
	// Presence must be a contiguous prefix of the publish order...
	present := 0
	for present < n {
		if _, ok := rSrv.Registry().Lookup(names[present]); !ok {
			break
		}
		present++
	}
	for i := present; i < n; i++ {
		if _, ok := rSrv.Registry().Lookup(names[i]); ok {
			t.Fatalf("torn view: %s present but %s missing", names[i], names[present])
		}
	}
	// ...and every present histogram bit-identical to the primary's.
	for i := 0; i < present; i++ {
		e, _ := rSrv.Registry().Lookup(names[i])
		got, err := e.H.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blobs[i]) {
			t.Fatalf("%s differs from the primary's bytes after the promote race", names[i])
		}
	}
	t.Logf("promote landed with %d/%d histograms replicated", present, n)
}
