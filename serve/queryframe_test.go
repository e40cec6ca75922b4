package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wavelethist/dist"
)

// postFrame sends one query frame to a shard's POST /v1/query.
func postFrame(t *testing.T, base string, groups []dist.QueryGroup) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", dist.ContentTypeBinary,
		bytes.NewReader(dist.AppendQueryFrame(nil, groups)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// TestQueryFrameGroups: a frame's groups each get what the JSON batch
// endpoint answers for that name — bit-identical estimates and per-query
// errors for a served name, its 404 or 400 message for a refused one —
// and a refused group does not disturb its neighbours. Sent twice so the
// second pass runs on recycled buffers.
func TestQueryFrameGroups(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	e1, err := s.Registry().Publish("one", buildHist(t, 20000, 1<<10, 30, 3))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Registry().Publish2D("grid", buildHist2D(t, 64, 30, 4))
	if err != nil {
		t.Fatal(err)
	}
	var q1 []BatchQuery
	for i := 0; i < 30; i++ {
		q1 = append(q1,
			BatchQuery{Op: "point", Key: int64(i * 41 % (1 << 10))},
			BatchQuery{Op: "range", Lo: int64(i), Hi: int64(i + 200)})
	}
	q1 = q1[:40]
	q1[7] = BatchQuery{Op: "point", Key: 1 << 10} // off-domain
	q1[9] = BatchQuery{Op: "sum", Key: 1}         // unknown op
	q2 := []BatchQuery{
		{Op: "point", X: 3, Y: 60},
		{Op: "range", XLo: 1, XHi: 40, YLo: 0, YHi: 63},
		{Op: "point", X: 64, Y: 0}, // off-grid
	}
	groups := []dist.QueryGroup{
		{Name: "one", Queries: q1},
		{Name: "ghost", Queries: q2},
		{Name: "grid", Queries: q2},
		{Name: "one"},
		{Name: "one", Queries: make([]BatchQuery, maxBatch+1)},
	}
	want1 := make([]BatchResult, len(q1))
	e1.Batch(q1, want1)
	want2 := make([]BatchResult, len(q2))
	e2.Batch(q2, want2)
	if want1[7].Error == "" || want1[9].Error == "" || want2[2].Error == "" {
		t.Fatalf("fixture lost its per-query errors: %+v %+v %+v", want1[7], want1[9], want2[2])
	}

	for pass := 0; pass < 2; pass++ {
		code, body := postFrame(t, ts.URL, groups)
		if code != http.StatusOK {
			t.Fatalf("pass %d: HTTP %d: %s", pass, code, body)
		}
		got, _, err := dist.DecodeResultFrame(body, nil, nil)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if len(got) != len(groups) {
			t.Fatalf("pass %d: %d result groups for %d query groups", pass, len(got), len(groups))
		}
		for gi, want := range map[int][]BatchResult{0: want1, 2: want2} {
			g := got[gi]
			wantVersion := map[int]uint64{0: e1.Version, 2: e2.Version}[gi]
			if g.Status != http.StatusOK || g.Error != "" || g.Version != wantVersion || len(g.Results) != len(want) {
				t.Fatalf("pass %d group %d: %+v", pass, gi, g)
			}
			for i := range want {
				if math.Float64bits(g.Results[i].Estimate) != math.Float64bits(want[i].Estimate) ||
					g.Results[i].Error != want[i].Error {
					t.Fatalf("pass %d group %d query %d: %+v, want %+v", pass, gi, i, g.Results[i], want[i])
				}
			}
		}
		// Refused groups carry exactly the JSON endpoint's status and message.
		for gi, path := range map[int]string{1: "/v1/hist/ghost/query", 3: "/v1/hist/one/query", 4: "/v1/hist/one/query"} {
			wantCode := map[int]int{1: http.StatusNotFound, 3: http.StatusBadRequest, 4: http.StatusBadRequest}[gi]
			ref := postJSON(t, ts.URL+path, map[string]any{"queries": groups[gi].Queries}, wantCode)
			if g := got[gi]; g.Status != wantCode || g.Error != ref["error"] || len(g.Results) != 0 {
				t.Fatalf("pass %d group %d: %+v, JSON endpoint says %d %v", pass, gi, g, wantCode, ref["error"])
			}
		}
	}
}

// TestQueryFrameRequestErrors: anything that is not a well-formed frame
// under the body limit is refused as a whole, with the JSON error body
// every other endpoint sends.
func TestQueryFrameRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post := func(contentType string, body []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/query", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out apiError
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("error body is not JSON: %v", err)
		}
		return resp.StatusCode, out.Error
	}
	frame := dist.AppendQueryFrame(nil, []dist.QueryGroup{{Name: "h", Queries: []BatchQuery{{Op: "point"}}}})
	if code, _ := post("application/json", []byte(`{"queries":[]}`)); code != http.StatusUnsupportedMediaType {
		t.Errorf("JSON body: HTTP %d, want 415", code)
	}
	if code, msg := post(dist.ContentTypeBinary, frame[:len(frame)-2]); code != http.StatusBadRequest || !strings.HasPrefix(msg, "bad request body:") {
		t.Errorf("truncated frame: HTTP %d %q", code, msg)
	}
	// A well-formed frame padded to the body limit is read and refused
	// as malformed; one byte more is refused unread.
	atLimit := append(frame[:len(frame):len(frame)], make([]byte, maxBodyBytes-len(frame))...)
	if code, msg := post(dist.ContentTypeBinary, atLimit); code != http.StatusBadRequest || strings.Contains(msg, "too large") {
		t.Errorf("frame at maxBodyBytes: HTTP %d %q", code, msg)
	}
	if code, msg := post(dist.ContentTypeBinary, append(atLimit, 0)); code != http.StatusBadRequest || !strings.Contains(msg, "too large") {
		t.Errorf("frame over maxBodyBytes: HTTP %d %q", code, msg)
	}
}

// TestQueryFrameOnReadOnlyReplica: the hop is a read — a replica that
// refuses every mutation still answers it.
func TestQueryFrameOnReadOnlyReplica(t *testing.T) {
	s, ts := newTestServer(t, Config{ReadOnly: true})
	h := buildHist(t, 20000, 1<<10, 30, 5)
	if _, err := s.Registry().Publish("p", h); err != nil {
		t.Fatal(err)
	}
	code, body := postFrame(t, ts.URL, []dist.QueryGroup{{Name: "p", Queries: []BatchQuery{{Op: "point", Key: 9}}}})
	got, _, err := dist.DecodeResultFrame(body, nil, nil)
	if code != http.StatusOK || err != nil || len(got) != 1 || got[0].Status != http.StatusOK ||
		got[0].Results[0].Estimate != h.PointEstimate(9) {
		t.Fatalf("HTTP %d, %v, %+v", code, err, got)
	}
}

// TestQueryFrameSlowLogAndStats: a frame group leaves the same traces a
// JSON batch does — one Batch stat, and a slow-query record whose
// coalesced count comes from the frame.
func TestQueryFrameSlowLogAndStats(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond, SlowQueryDir: dir})
	e, err := s.Registry().Publish("p", buildHist(t, 20000, 1<<10, 30, 6))
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]BatchQuery, 20)
	for i := range qs {
		qs[i] = BatchQuery{Op: "point", Key: int64(i)}
	}
	if code, body := postFrame(t, ts.URL, []dist.QueryGroup{
		{Name: "p", Queries: qs},
		{Name: "p", Coalesced: 17, Queries: qs[:17]},
	}); code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	if v := e.Stats.View(); v.Batch.Count != 2 || v.BatchQueries.Count != 37 {
		t.Fatalf("stats after two groups: %+v", v)
	}
	s.Close() // flush and close the sink

	f, err := os.Open(filepath.Join(dir, "slow-queries.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []slowQueryRecord
	for scan := bufio.NewScanner(f); scan.Scan(); {
		var rec slowQueryRecord
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", scan.Text(), err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 || recs[0].Op != "batch" || recs[0].Name != "p" ||
		recs[0].Batch != 20 || recs[0].Coalesced != 0 || recs[1].Batch != 17 || recs[1].Coalesced != 17 {
		t.Fatalf("slow-query records: %+v", recs)
	}
}
