package ha

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wavelethist/dist"
	"wavelethist/serve"
)

// crossBatchReply is POST /v1/query's response: results on 200, an
// error on 400.
type crossBatchReply struct {
	Results []serve.BatchResult `json:"results"`
	Error   string              `json:"error"`
}

func postCrossBatch(t *testing.T, base string, queries []NamedQuery) (int, crossBatchReply, []byte) {
	t.Helper()
	payload, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var out crossBatchReply
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("POST /v1/query: bad JSON %q: %v", body, err)
	}
	return resp.StatusCode, out, body
}

// TestCrossBatchErrorContract pins what POST /v1/query through the
// router answers when part of a batch cannot be served: the failure
// stays with the queries it belongs to, in the words the shard's own
// batch endpoint uses, and everything else in the batch is answered
// bit-identically to a direct read.
func TestCrossBatchErrorContract(t *testing.T) {
	const maxBatch = 4096 // a shard's per-request query limit
	p0, p0TS := newNode(t, serve.Config{Shard: "s0"})
	r0, r0TS := newNode(t, serve.Config{Shard: "s0", ReadOnly: true})
	p1, p1TS := newNode(t, serve.Config{Shard: "s1"})
	rt, err := NewRouter([]Shard{
		{ID: "s0", Primary: p0TS.URL, Replicas: []string{r0TS.URL}},
		{ID: "s1", Primary: p1TS.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtTS := httptest.NewServer(rt)
	defer rtTS.Close()

	// Two names on s0, one on s1, and a name nobody publishes.
	var on0, on1 []string
	for i := 0; len(on0) < 2 || len(on1) < 1; i++ {
		name := fmt.Sprintf("hist-%d", i)
		switch id := rt.Shard(name).ID; {
		case id == "s0" && len(on0) < 2:
			on0 = append(on0, name)
		case id == "s1" && len(on1) < 1:
			on1 = append(on1, name)
		}
	}
	a0, b0, a1 := on0[0], on0[1], on1[0]
	for i, name := range []string{a0, b0} {
		if _, err := p0.Registry().Publish(name, buildTestHist(t, uint64(60+i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p1.Registry().Publish(a1, buildTestHist(t, 70)); err != nil {
		t.Fatal(err)
	}
	rep := NewReplica(r0, p0TS.URL, 0)
	if err := rep.SyncOnce(t.Context()); err != nil {
		t.Fatal(err)
	}

	point := func(name string, key int64) NamedQuery {
		return NamedQuery{Name: name, BatchQuery: serve.BatchQuery{Op: "point", Key: key}}
	}
	span := func(name string, lo, hi int64) NamedQuery {
		return NamedQuery{Name: name, BatchQuery: serve.BatchQuery{Op: "range", Lo: lo, Hi: hi}}
	}
	// direct is the estimate a query gets from its entry with no router
	// or wire in between.
	direct := func(q NamedQuery) float64 {
		t.Helper()
		srv := p0
		if q.Name == a1 {
			srv = p1
		}
		e, ok := srv.Registry().Lookup(q.Name)
		if !ok {
			t.Fatalf("no entry %q", q.Name)
		}
		res := make([]serve.BatchResult, 1)
		e.Batch([]serve.BatchQuery{q.BatchQuery}, res)
		if res[0].Error != "" {
			t.Fatalf("direct %+v: %s", q, res[0].Error)
		}
		return res[0].Estimate
	}
	// check posts the batch and holds every result to want[i]: a string
	// is the exact error, a string ending in "…" a required prefix, nil
	// the direct estimate to the bit.
	check := func(t *testing.T, queries []NamedQuery, want []any) {
		t.Helper()
		code, out, body := postCrossBatch(t, rtTS.URL, queries)
		if code != http.StatusOK || len(out.Results) != len(queries) {
			t.Fatalf("HTTP %d with %d results for %d queries: %s", code, len(out.Results), len(queries), body)
		}
		for i, res := range out.Results {
			switch w := want[i].(type) {
			case nil:
				if res.Error != "" || math.Float64bits(res.Estimate) != math.Float64bits(direct(queries[i])) {
					t.Errorf("query %d (%+v): %+v, want estimate %v", i, queries[i], res, direct(queries[i]))
				}
			case string:
				prefix, isPrefix := strings.CutSuffix(w, "…")
				if res.Estimate != 0 || (isPrefix && !strings.HasPrefix(res.Error, prefix)) || (!isPrefix && res.Error != w) {
					t.Errorf("query %d (%+v): %+v, want error %q", i, queries[i], res, w)
				}
			}
		}
	}
	wantStatus := func(t *testing.T, queries []NamedQuery, code int, msg string) {
		t.Helper()
		gotCode, out, _ := postCrossBatch(t, rtTS.URL, queries)
		if gotCode != code || out.Error != msg || out.Results != nil {
			t.Errorf("HTTP %d %+v, want %d %q", gotCode, out, code, msg)
		}
	}

	t.Run("unknown name fails its own queries", func(t *testing.T) {
		ghost := "ghost"
		check(t,
			[]NamedQuery{point(a0, 5), point(ghost, 5), span(a1, 0, 900), span(ghost, 1, 2), point(b0, 77)},
			[]any{nil, `no histogram "ghost"`, nil, `no histogram "ghost"`, nil})
	})
	t.Run("unknown op and off-domain key are per-query errors", func(t *testing.T) {
		bad := NamedQuery{Name: a0, BatchQuery: serve.BatchQuery{Op: "sum", Key: 1}}
		check(t,
			[]NamedQuery{bad, point(a0, 9), point(a1, 1<<12), span(a1, 3, 30)},
			[]any{`unknown op "sum" (want point or range)`, nil, "serve: key 4096 outside domain [0, 4096)", nil})
	})
	t.Run("nameless query refuses the batch", func(t *testing.T) {
		wantStatus(t, []NamedQuery{point(a0, 1), point("", 2)}, http.StatusBadRequest, "query 1 has no histogram name")
	})
	t.Run("empty batch", func(t *testing.T) {
		wantStatus(t, []NamedQuery{}, http.StatusBadRequest, "empty batch")
	})
	t.Run("a name group over MaxBatch fails alone", func(t *testing.T) {
		var queries []NamedQuery
		var want []any
		for i := 0; i <= maxBatch; i++ { // maxBatch+1 for a0, interleaved with b0 and a1
			queries = append(queries, point(a0, int64(i)))
			want = append(want, fmt.Sprintf("batch of %d exceeds limit %d", maxBatch+1, maxBatch))
			if i < 3 {
				queries = append(queries, span(b0, int64(i), 500), point(a1, int64(i)))
				want = append(want, nil, nil)
			}
		}
		check(t, queries, want)
	})

	mixed := []NamedQuery{point(a0, 123), point(a1, 123), span(b0, 0, 500), span(a0, 10, 20), span(a1, 7, 4000)}
	t.Run("primary down: the replica answers bit-identically", func(t *testing.T) {
		check(t, mixed, make([]any, len(mixed)))
		before := rt.failovers.Load()
		p0TS.Close()
		check(t, mixed, make([]any, len(mixed)))
		if got := rt.failovers.Load() - before; got != 1 {
			t.Errorf("failovers rose by %d, want 1 (one hop to s0, retried once)", got)
		}
	})
	t.Run("whole shard down: only its queries fail", func(t *testing.T) {
		p1TS.Close()
		down := `shard "s1" unreachable: …`
		check(t, mixed, []any{nil, down, nil, nil, down})
	})
}

// TestCrossBatchResponseBytesGolden: the router's append encoder writes
// exactly the bytes encoding/json wrote before it — estimates in fixed
// and scientific notation, error strings with HTML, quotes and a
// newline. The shard is a stub speaking the frame protocol, so the
// results are whatever the test wants rendered.
func TestCrossBatchResponseBytesGolden(t *testing.T) {
	canned := map[string]dist.ResultGroup{
		"floats": {Status: http.StatusOK, Version: 3, Results: []serve.BatchResult{
			{Estimate: 0}, {Estimate: 1.5}, {Estimate: -123456789.125}, {Estimate: 1e-9},
			{Estimate: -3.25e-7}, {Estimate: 2.5e21}, {Estimate: 999999999999999868928},
		}},
		"errors": {Status: http.StatusOK, Version: 4, Results: []serve.BatchResult{
			{Error: "a<b>&c"}, {Estimate: 2}, {Error: "say \"what\"\nnext line"},
		}},
		"gone": {Status: http.StatusNotFound, Error: "no histogram \"g<o>ne\"\n"},
	}
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		groups, _, err := dist.DecodeQueryFrame(body, nil, nil)
		if err != nil || r.URL.Path != "/v1/query" || r.Header.Get("Content-Type") != dist.ContentTypeBinary {
			http.Error(w, fmt.Sprint("not a query frame: ", err), http.StatusBadRequest)
			return
		}
		out := make([]dist.ResultGroup, len(groups))
		for i, g := range groups {
			out[i] = canned[g.Name]
		}
		w.Write(dist.AppendResultFrame(nil, out))
	}))
	defer shard.Close()
	rt, err := NewRouter([]Shard{{ID: "s0", Primary: shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtTS := httptest.NewServer(rt)
	defer rtTS.Close()

	// Interleave the names so the bytes also pin request-order scatter.
	var queries []NamedQuery
	var want []serve.BatchResult
	next := map[string]int{}
	for _, name := range []string{"floats", "errors", "gone", "floats", "floats", "errors", "floats", "gone", "errors", "floats", "floats", "floats"} {
		queries = append(queries, NamedQuery{Name: name, BatchQuery: serve.BatchQuery{Op: "point"}})
		if g := canned[name]; g.Status == http.StatusOK {
			want = append(want, g.Results[next[name]])
			next[name]++
		} else {
			want = append(want, serve.BatchResult{Error: g.Error})
		}
	}
	var golden bytes.Buffer
	if err := json.NewEncoder(&golden).Encode(map[string]any{"results": want}); err != nil {
		t.Fatal(err)
	}
	code, _, body := postCrossBatch(t, rtTS.URL, queries)
	if code != http.StatusOK || !bytes.Equal(body, golden.Bytes()) {
		t.Fatalf("HTTP %d\n got %s\nwant %s", code, body, golden.Bytes())
	}
}

// TestCoalescedCountRidesTheFrame: a merged window tells the shard how
// many client queries it folded in through the query frame (there is no
// header any more), and the shard's slow-query record shows it.
func TestCoalescedCountRidesTheFrame(t *testing.T) {
	dir := t.TempDir()
	s, shardTS := newNode(t, serve.Config{SlowQueryThreshold: time.Nanosecond, SlowQueryDir: dir})
	if _, err := s.Registry().Publish("demo", buildTestHist(t, 52)); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouterConfig([]Shard{{ID: "s0", Primary: shardTS.URL}},
		RouterConfig{CoalesceWait: time.Hour, CoalesceMax: 4}) // only the size trigger dispatches
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rtTS := httptest.NewServer(rt)
	defer rtTS.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if code, body := getBody(t, rtTS.URL+fmt.Sprintf("/v1/hist/demo/point?key=%d", i)); code != http.StatusOK {
				t.Errorf("key=%d: HTTP %d: %s", i, code, body)
			}
		}(i)
	}
	wg.Wait()
	s.Close() // flush and close the sink
	log, err := os.ReadFile(filepath.Join(dir, "slow-queries.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Op               string
		Batch, Coalesced int
	}
	if err := json.Unmarshal(bytes.TrimSpace(log), &rec); err != nil {
		t.Fatalf("want exactly one slow-query record, got %q: %v", log, err)
	}
	if rec.Op != "batch" || rec.Batch != 4 || rec.Coalesced != 4 {
		t.Fatalf("slow-query record %+v, want one batch of 4 with coalesced=4", rec)
	}
}
