package serve

import (
	"bytes"
	"io"
	"net/http"
	"testing"
	"time"

	"wavelethist/dist"
)

// pullEpoch is pullBinary with an explicit request epoch — the fencing
// field a post-PR-10 replica always sends.
func pullEpoch(t *testing.T, base string, since, epoch uint64) *dist.ReplPullResponse {
	t.Helper()
	frame := dist.EncodeReplPullRequest(&dist.ReplPullRequest{Since: since, Epoch: epoch})
	resp, err := http.Post(base+"/v1/repl/pull", dist.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pull: HTTP %d: %s", resp.StatusCode, body)
	}
	out, err := dist.DecodeReplPullResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEpochPersistsAcrossRestarts: with a SnapshotDir the epoch is a
// true per-data-directory counter — every cold start advances it, and a
// fenced promotion's token lands in the file so a later restart
// continues past it.
func TestEpochPersistsAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	s1, _ := newTestServer(t, Config{SnapshotDir: dir})
	if s1.Epoch() != 1 {
		t.Fatalf("first cold start epoch %d, want 1", s1.Epoch())
	}
	s2, _ := newTestServer(t, Config{SnapshotDir: dir})
	if s2.Epoch() != 2 {
		t.Fatalf("second cold start epoch %d, want 2", s2.Epoch())
	}

	s3, _ := newTestServer(t, Config{ReadOnly: true, SnapshotDir: dir})
	if s3.Epoch() != 3 {
		t.Fatalf("third cold start epoch %d, want 3", s3.Epoch())
	}
	ep, err := s3.PromoteEpoch(100)
	if err != nil || ep != 100 {
		t.Fatalf("fenced promotion: epoch %d, err %v (want 100, nil)", ep, err)
	}
	s4, _ := newTestServer(t, Config{SnapshotDir: dir})
	if s4.Epoch() != 101 {
		t.Fatalf("restart after fenced promotion: epoch %d, want 101", s4.Epoch())
	}
}

// TestPromoteEpochFencing: a stale token (<= current epoch) cannot
// promote, a fresh one can, and a writable server refuses further
// promotions — all over the HTTP handler the router actually posts.
func TestPromoteEpochFencing(t *testing.T) {
	s, ts := newTestServer(t, Config{ReadOnly: true})
	e := s.Epoch()

	postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": e}, http.StatusConflict)
	if !s.ReadOnly() {
		t.Fatal("stale token promoted the replica")
	}

	out := postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": e + 7}, http.StatusOK)
	if out["promoted"] != true || s.ReadOnly() || s.Epoch() != e+7 {
		t.Fatalf("fenced promotion: %v, read_only=%v, epoch=%d (want %d)", out, s.ReadOnly(), s.Epoch(), e+7)
	}

	postJSON(t, ts.URL+"/v1/promote", map[string]any{"epoch": e + 100}, http.StatusConflict)
	if s.Epoch() != e+7 {
		t.Fatalf("re-promotion moved the epoch to %d", s.Epoch())
	}
}

// TestDemoteFencing: the demote token must STRICTLY exceed the demotee's
// epoch — the legitimate primary (whose epoch IS the fence) is immune to
// a replay of its own token, while a superseded lineage always yields.
// Token 0 is the manual operator path and demotes unconditionally.
func TestDemoteFencing(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	e := s.Epoch()

	// Replaying the primary's own epoch as a token is refused.
	postJSON(t, ts.URL+"/v1/demote", map[string]any{"epoch": e}, http.StatusConflict)
	if s.ReadOnly() {
		t.Fatal("own-token replay demoted the primary")
	}

	// A strictly newer lineage's token fences it read-only.
	out := postJSON(t, ts.URL+"/v1/demote", map[string]any{"epoch": e + 1}, http.StatusOK)
	if out["demoted"] != true || !s.ReadOnly() {
		t.Fatalf("fenced demotion: %v, read_only=%v", out, s.ReadOnly())
	}

	// Demoting an already-read-only server is an idempotent no-op.
	out = postJSON(t, ts.URL+"/v1/demote", map[string]any{"epoch": e + 2}, http.StatusOK)
	if out["demoted"] != false {
		t.Fatalf("re-demotion: %v, want demoted=false", out)
	}

	// Manual path: unfenced promote, then unconditional demote.
	postJSON(t, ts.URL+"/v1/promote", map[string]any{}, http.StatusOK)
	if s.ReadOnly() {
		t.Fatal("manual promotion did not take")
	}
	postJSON(t, ts.URL+"/v1/demote", map[string]any{}, http.StatusOK)
	if !s.ReadOnly() {
		t.Fatal("manual demotion did not take")
	}
}

// TestPullEpochMismatchForcesFullSnapshot: a cursor minted under a
// different epoch is meaningless (the primary's version counter may
// have restarted), so the primary answers from zero with the complete
// state. Matching and unknown (epoch 0, a first pull) epochs keep the
// incremental path: 0 forces nothing.
func TestPullEpochMismatchForcesFullSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.Registry().Publish("a", buildHist(t, 10000, 1<<10, 20, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Publish("b", buildHist(t, 10000, 1<<10, 20, 2)); err != nil {
		t.Fatal(err)
	}
	cur, e := s.Registry().Version(), s.Epoch()

	match := pullEpoch(t, ts.URL, cur, e)
	if match.Since != cur || len(match.Entries) != 0 || match.Epoch != e {
		t.Fatalf("matching-epoch pull: since=%d entries=%d epoch=%d", match.Since, len(match.Entries), match.Epoch)
	}

	mismatch := pullEpoch(t, ts.URL, cur, e+999)
	if mismatch.Since != 0 || len(mismatch.Entries) != 2 {
		t.Fatalf("mismatched-epoch pull: since=%d entries=%d, want full snapshot", mismatch.Since, len(mismatch.Entries))
	}

	unknown := pullEpoch(t, ts.URL, cur, 0)
	if unknown.Since != cur || len(unknown.Entries) != 0 {
		t.Fatalf("epoch-0 pull: since=%d entries=%d, want incremental", unknown.Since, len(unknown.Entries))
	}
}

// TestPullMalformedFrameIs400: a pull frame cut short — including the
// pre-epoch form that ends after the cursor — is refused with 400, not
// read as "epoch unknown".
func TestPullMalformedFrameIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	frame := dist.EncodeReplPullRequest(&dist.ReplPullRequest{Since: 5, Epoch: 1 << 40})
	for _, n := range []int{0, 4, len(frame) - 6, len(frame) - 1} {
		resp, err := http.Post(ts.URL+"/v1/repl/pull", dist.ContentTypeBinary, bytes.NewReader(frame[:n]))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("pull frame cut to %d of %d bytes: HTTP %d, want 400", n, len(frame), resp.StatusCode)
		}
	}
}

// TestHealthzEpochFields: /healthz carries everything the router's
// elector needs in one probe — epoch and role always, replication
// progress (applied cursor + the epoch it was minted under) once the
// server has a replication status.
func TestHealthzEpochFields(t *testing.T) {
	p, pts := newTestServer(t, Config{})
	out := getJSON(t, pts.URL+"/healthz", http.StatusOK)
	if out["ok"] != true || out["read_only"] != false {
		t.Fatalf("primary healthz: %v", out)
	}
	// Random in-memory epochs exceed float64's integer range; compare in
	// float space, which is what a JSON client sees anyway.
	if out["epoch"].(float64) != float64(p.Epoch()) {
		t.Fatalf("primary healthz epoch %v, want %d", out["epoch"], p.Epoch())
	}
	if _, ok := out["applied"]; ok {
		t.Fatalf("primary healthz carries replication fields: %v", out)
	}

	r, rts := newTestServer(t, Config{ReadOnly: true})
	r.SetReplStatus(ReplStatus{Primary: "http://p", Version: 42, Epoch: 7, SyncedAt: time.Now()})
	out = getJSON(t, rts.URL+"/healthz", http.StatusOK)
	if out["read_only"] != true || out["applied"].(float64) != 42 || out["repl_epoch"].(float64) != 7 {
		t.Fatalf("replica healthz: %v", out)
	}
}

// TestNeverSyncedStalenessGauge: a replica whose primary was dead from
// the very first pull has a zero SyncedAt forever — the staleness gauge
// must fall back to the first attempt so the sync-stalled alert can
// fire exactly when replication is broken, and the epoch families must
// exist alongside it.
func TestNeverSyncedStalenessGauge(t *testing.T) {
	s, ts := newTestServer(t, Config{ReadOnly: true})
	s.SetReplStatus(ReplStatus{
		Primary:      "http://dead",
		Error:        "connection refused",
		LastAttempt:  time.Now(),
		FirstAttempt: time.Now().Add(-30 * time.Second),
		LagVersions:  5,
	})
	fams := scrape(t, ts.URL)
	gauge := func(name string) float64 {
		t.Helper()
		fam := fams[name]
		if fam == nil || len(fam.Samples) == 0 {
			t.Fatalf("family %s missing", name)
		}
		return fam.Samples[0].Value
	}
	if v := gauge("wavehist_repl_seconds_since_sync"); v < 29 {
		t.Fatalf("never-synced staleness gauge %v, want >= 29s (first-attempt fallback)", v)
	}
	if v := gauge("wavehist_repl_lag_versions"); v != 5 {
		t.Fatalf("lag gauge %v, want 5", v)
	}
	if v := gauge("wavehist_repl_epoch"); v != 0 {
		t.Fatalf("never-synced repl epoch %v, want 0", v)
	}
	if fams["wavehist_epoch"] == nil || fams["wavehist_repl_epoch_resets_total"] == nil {
		t.Fatal("epoch metric families missing from a replica scrape")
	}
}
