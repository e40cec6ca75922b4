package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wavelethist/dist"
)

func pullBinary(t *testing.T, base string, since uint64) *dist.ReplPullResponse {
	t.Helper()
	frame := dist.EncodeReplPullRequest(&dist.ReplPullRequest{Since: since})
	resp, err := http.Post(base+"/v1/repl/pull", dist.ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pull: HTTP %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != dist.ContentTypeBinary {
		t.Fatalf("pull content type %q", ct)
	}
	out, err := dist.DecodeReplPullResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplPull: the catch-up endpoint ships exactly the entries newer
// than the caller's cursor, in version order, plus the full live name
// set for drop detection — over both wire encodings.
func TestReplPull(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.Registry().Publish("a", buildHist(t, 10000, 1<<10, 20, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Publish("b", buildHist(t, 10000, 1<<10, 20, 2)); err != nil {
		t.Fatal(err)
	}

	full := pullBinary(t, ts.URL, 0)
	if full.Version != s.Registry().Version() || len(full.Entries) != 2 || len(full.Names) != 2 {
		t.Fatalf("full pull: %+v", full)
	}
	if full.Entries[0].Version >= full.Entries[1].Version {
		t.Fatalf("entries out of version order: %d, %d", full.Entries[0].Version, full.Entries[1].Version)
	}

	// Incremental: from the current version there is nothing to ship.
	if inc := pullBinary(t, ts.URL, full.Version); len(inc.Entries) != 0 {
		t.Fatalf("incremental pull shipped %d entries", len(inc.Entries))
	}

	// One republish → exactly one entry newer than the old cursor.
	if _, err := s.Registry().Publish("a", buildHist(t, 10000, 1<<10, 20, 3)); err != nil {
		t.Fatal(err)
	}
	inc := pullBinary(t, ts.URL, full.Version)
	if len(inc.Entries) != 1 || inc.Entries[0].Name != "a" {
		t.Fatalf("incremental pull: %+v", inc.Entries)
	}

	// Drop detection: the name set shrinks even though no entry ships.
	s.Registry().Drop("b")
	after := pullBinary(t, ts.URL, inc.Version)
	if len(after.Entries) != 0 || len(after.Names) != 1 || after.Names[0] != "a" {
		t.Fatalf("post-drop pull: entries=%v names=%v", after.Entries, after.Names)
	}

	// Frames only: the JSON form no peer ever sent is a 415.
	postJSON(t, ts.URL+"/v1/repl/pull", map[string]any{"since": 0}, http.StatusUnsupportedMediaType)
}

// TestReadOnlyReplicaMode: a ReadOnly server rejects every mutation with
// 403, keeps serving reads, and accepts writes after promotion.
func TestReadOnlyReplicaMode(t *testing.T) {
	s, ts := newTestServer(t, Config{ReadOnly: true})
	if _, err := s.Registry().Publish("r", buildHist(t, 10000, 1<<10, 20, 4)); err != nil {
		t.Fatal(err)
	}

	// Reads work.
	getJSON(t, ts.URL+"/v1/hist/r/point?key=5", http.StatusOK)
	getJSON(t, ts.URL+"/v1/hist/r/range?lo=0&hi=100", http.StatusOK)

	// Mutations are refused.
	postJSON(t, ts.URL+"/v1/hist/r/updates", map[string]any{
		"updates": []map[string]any{{"key": 1, "delta": 1}},
	}, http.StatusForbidden)
	postJSON(t, ts.URL+"/v1/datasets", map[string]any{
		"name": "z", "kind": "zipf", "records": 1000, "domain": 1024,
	}, http.StatusForbidden)
	postJSON(t, ts.URL+"/v1/build", map[string]any{
		"name": "x", "dataset": "z", "method": "Send-V",
	}, http.StatusForbidden)

	// Stats expose the read-only posture.
	stats := getJSON(t, ts.URL+"/v1/stats", http.StatusOK)
	repl, ok := stats["replication"].(map[string]any)
	if !ok || repl["read_only"] != true {
		t.Fatalf("stats replication section: %v", stats["replication"])
	}

	// Promote: exactly once, then mutations flow.
	out := postJSON(t, ts.URL+"/v1/promote", nil, http.StatusOK)
	if out["promoted"] != true {
		t.Fatalf("promote: %v", out)
	}
	postJSON(t, ts.URL+"/v1/promote", nil, http.StatusConflict)
	postJSON(t, ts.URL+"/v1/hist/r/updates", map[string]any{
		"updates": []map[string]any{{"key": 1, "delta": 1}},
	}, http.StatusOK)
}

// TestMaintainerPersistence: maintainer state (the full tracked set, not
// just the published top-k) survives a server restart. Every acknowledged
// republish — flushed or every republishEvery updates — writes the state
// as the name's entry file, and a server restarted on the directory after
// any of them resumes a maintainer whose WMNT encoding is the live one's,
// byte for byte, at the entry's version.
func TestMaintainerPersistence(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{SnapshotDir: dir})
	if _, err := s1.Registry().Publish("m", buildHist(t, 20000, 1<<12, 30, 5)); err != nil {
		t.Fatal(err)
	}
	marshal := func(m *maintained) []byte {
		t.Helper()
		b, err := m.mh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	unflushed := make([]KeyUpdate, republishEvery) // republishes on count alone
	for i := range unflushed {
		unflushed[i] = KeyUpdate{Key: int64(i * 15 % (1 << 12)), Delta: float64(i%7 - 3)}
	}
	unflushed[0] = KeyUpdate{Key: 1000, Delta: 40}
	for i, batch := range []struct {
		updates []KeyUpdate
		flush   bool
	}{
		{[]KeyUpdate{{Key: 42, Delta: 500}, {Key: 99, Delta: -3}, {Key: 7, Delta: 12}}, true},
		{unflushed, false},
		{[]KeyUpdate{{Key: 2048, Delta: 300}}, true},
	} {
		out := postJSON(t, ts1.URL+"/v1/hist/m/updates", map[string]any{"updates": batch.updates, "flush": batch.flush}, http.StatusOK)
		if out["republished"] != true {
			t.Fatalf("batch %d was not republished: %v", i, out)
		}
		s1.mu.Lock()
		want := marshal(s1.maints["m"])
		s1.mu.Unlock()

		s2, _ := newTestServer(t, Config{SnapshotDir: dir})
		e, ok := s2.Registry().Lookup("m")
		if !ok {
			t.Fatal("entry missing after restart")
		}
		m2, err := s2.maintainer(e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshal(m2), want) {
			t.Fatalf("after republish %d: restored maintainer state differs from the live one", i)
		}
		if m2.base != e.Version {
			t.Fatal("restored maintainer base does not match registry entry version")
		}
		s2.Close()
	}

	// The restored lineage keeps accepting updates and republishing, from
	// several clients at once: exactly one of them claims the saved state.
	s3, ts3 := newTestServer(t, Config{SnapshotDir: dir})
	var wg sync.WaitGroup
	for key := 40; key < 44; key++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := fmt.Sprintf(`{"updates":[{"key":%d,"delta":1}],"flush":true}`, key)
			resp, err := http.Post(ts3.URL+"/v1/hist/m/updates", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("update of key %d after restart: HTTP %d", key, resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if sn, p := s3.seeds["snapshot"].Value(), s3.seeds["published"].Value(); sn != 1 || p != 0 {
		t.Errorf("seeds snapshot=%d published=%d after concurrent updates, want 1 and 0", sn, p)
	}
}

// TestAcknowledgedUpdateSurvivesRestart: a restart never rolls back an
// acknowledged republish. The histogram and the maintainer state it came
// from are one entry file written in one atomic step, so no failed second
// write can leave an older state behind for the restarted daemon to
// resume from and republish. (A directory at m.wmnt.tmp once failed such
// a write silently, and the first unrelated update after a restart erased
// key 42's acknowledged delta.)
func TestAcknowledgedUpdateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{SnapshotDir: dir})
	if _, err := s1.Registry().Publish("m", buildHist(t, 20000, 1<<12, 30, 5)); err != nil {
		t.Fatal(err)
	}
	update := func(base string, key int64, delta float64) {
		t.Helper()
		postJSON(t, base+"/v1/hist/m/updates", map[string]any{
			"updates": []KeyUpdate{{Key: key, Delta: delta}}, "flush": true,
		}, http.StatusOK)
	}
	estimate := func(base string) float64 {
		t.Helper()
		est, _ := getJSON(t, base+"/v1/hist/m/point?key=42", http.StatusOK)["estimate"].(float64)
		return est
	}
	update(ts1.URL, 42, 500)
	if err := os.Mkdir(filepath.Join(dir, "m.wmnt.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	update(ts1.URL, 42, 100_000)
	want := estimate(ts1.URL)
	if want < 100_000 {
		t.Fatalf("key 42 = %v before the restart, want the acknowledged +100000 in it", want)
	}

	_, ts2 := newTestServer(t, Config{SnapshotDir: dir})
	if got := estimate(ts2.URL); got != want {
		t.Fatalf("key 42 = %v after the restart, want %v", got, want)
	}
	update(ts2.URL, 7, 1)
	if got := estimate(ts2.URL); math.Abs(got-want) > 1 {
		t.Fatalf("key 42 = %v after one update of key 7 on the restarted daemon, want %v ± 1", got, want)
	}
}

// TestMaintainerSeedsCounted: wavehist_maintainer_seeds_total says what
// every live maintainer was seeded from. A promoted replica was shipped
// the histogram only, so its first update seeds from the published top-k
// and loses the shadow set (published +1); after a restart over a
// snapshot dir, the first update resumes the tracked set saved in the
// entry file instead (snapshot +1, published 0); a build with "maintain"
// seeds from the build (build +1).
func TestMaintainerSeedsCounted(t *testing.T) {
	seeds := func(base string) map[string]float64 {
		t.Helper()
		out := map[string]float64{}
		for _, sm := range scrape(t, base)["wavehist_maintainer_seeds_total"].Samples {
			out[sm.Labels["source"]] = sm.Value
		}
		return out
	}
	update := func(base string) {
		t.Helper()
		postJSON(t, base+"/v1/hist/m/updates", map[string]any{
			"updates": []map[string]any{{"key": 42, "delta": 7}, {"key": 9, "delta": -1}},
			"flush":   true,
		}, http.StatusOK)
	}
	h := buildHist(t, 20000, 1<<12, 30, 6)

	r, rts := newTestServer(t, Config{ReadOnly: true})
	if _, err := r.Registry().Publish("m", h); err != nil {
		t.Fatal(err)
	}
	if got := seeds(rts.URL); got["build"]+got["snapshot"]+got["published"] != 0 {
		t.Fatalf("replica before promotion: %v", got)
	}
	postJSON(t, rts.URL+"/v1/promote", nil, http.StatusOK)
	update(rts.URL)
	update(rts.URL) // the same maintainer: no second seed
	if got := seeds(rts.URL); got["published"] != 1 || got["build"] != 0 || got["snapshot"] != 0 {
		t.Fatalf("promoted replica after updates: %v", got)
	}

	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{SnapshotDir: dir})
	if _, err := s1.Registry().Publish("m", h); err != nil {
		t.Fatal(err)
	}
	update(ts1.URL) // seeds from the published top-k; the republish writes the state
	_, ts2 := newTestServer(t, Config{SnapshotDir: dir})
	update(ts2.URL)
	if got := seeds(ts2.URL); got["snapshot"] != 1 || got["published"] != 0 || got["build"] != 0 {
		t.Fatalf("restarted over a snapshot dir: %v", got)
	}

	postJSON(t, ts2.URL+"/v1/datasets", map[string]any{
		"name": "z", "kind": "zipf", "records": 5000, "domain": 1024,
	}, http.StatusCreated)
	id := postBuild(t, ts2.URL, `{"name":"b","dataset":"z","method":"Send-V","k":10,"maintain":true}`)
	for i := 0; getJSON(t, ts2.URL+"/v1/jobs/"+id, http.StatusOK)["state"] != "done"; i++ {
		if i > 500 {
			t.Fatal("build did not finish")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := seeds(ts2.URL); got["build"] != 1 || got["snapshot"] != 1 || got["published"] != 0 {
		t.Fatalf("after a maintained build: %v", got)
	}
}
