package ha

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wavelethist/internal/obs"
	"wavelethist/serve"
)

// TestCrossBatchStraddlesShardsVectorized: one POST /v1/query whose
// queries straddle shard boundaries — several names per shard, one
// batch per shard — comes back reassembled in request order with every
// estimate bit-identical to the owning entry's own answer.
func TestCrossBatchStraddlesShardsVectorized(t *testing.T) {
	s0, ts0 := newNode(t, serve.Config{Shard: "s0"})
	s1, ts1 := newNode(t, serve.Config{Shard: "s1"})
	defer s0.Close()
	defer s1.Close()
	rt, err := NewRouter([]Shard{
		{ID: "s0", Primary: ts0.URL},
		{ID: "s1", Primary: ts1.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]*serve.Server{"s0": s0, "s1": s1}

	// Find histogram names on both sides of the shard boundary and
	// publish each to its owning shard.
	byShard := map[string][]string{}
	for i := 0; len(byShard["s0"]) < 2 || len(byShard["s1"]) < 2; i++ {
		name := fmt.Sprintf("hist-%d", i)
		id := rt.Shard(name).ID
		if len(byShard[id]) >= 2 {
			continue
		}
		if _, err := nodes[id].Registry().Publish(name, buildTestHist(t, uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		byShard[id] = append(byShard[id], name)
	}
	names := append(append([]string{}, byShard["s0"]...), byShard["s1"]...)

	rtSrv := httptest.NewServer(rt)
	defer rtSrv.Close()

	// 30 queries per name, interleaved round-robin so adjacent request
	// indexes land on different shards — reassembly order is actually
	// exercised.
	const perName = 30
	var queries []NamedQuery
	for j := 0; j < perName; j++ {
		for _, name := range names {
			q := NamedQuery{Name: name}
			if j%3 == 0 {
				q.Op = "range"
				q.Lo = int64(j * 5)
				q.Hi = int64(j*5 + 300)
			} else {
				q.Op = "point"
				q.Key = int64((j * 37) % (1 << 12))
			}
			queries = append(queries, q)
		}
	}

	out := postJSON(t, rtSrv.URL+"/v1/query", map[string]any{"queries": queries}, 200)
	results := out["results"].([]any)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, rr := range results {
		res := rr.(map[string]any)
		if e, ok := res["error"]; ok && e != "" {
			t.Fatalf("query %d errored: %v", i, e)
		}
		q := queries[i]
		entry, ok := nodes[rt.Shard(q.Name).ID].Registry().Lookup(q.Name)
		if !ok {
			t.Fatalf("entry %q missing", q.Name)
		}
		var want float64
		var err error
		if q.Op == "point" {
			want, err = entry.Point(q.Key)
		} else {
			want, err = entry.Range(q.Lo, q.Hi)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := res["estimate"].(float64); got != want {
			t.Fatalf("query %d (%+v): router %v, direct %v", i, q, got, want)
		}
	}
}

// TestBatchBodyStrictnessSharedByRouterAndShard: the router's POST
// /v1/query and the shard's POST /v1/hist/{name}/query agree on what a
// bad body is — same status, same error text — because both decode
// through dist.QueryBatch: the scanner for canonical bodies, one strict
// encoding/json call (unknown fields and trailing bytes rejected) for
// the rest. Each row is one body, spelled with a name for the router and
// without for the shard.
func TestBatchBodyStrictnessSharedByRouterAndShard(t *testing.T) {
	s0, ts0 := newNode(t, serve.Config{Shard: "s0"})
	defer s0.Close()
	rt, err := NewRouter([]Shard{{ID: "s0", Primary: ts0.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if _, err := s0.Registry().Publish("h", buildTestHist(t, 1)); err != nil {
		t.Fatal(err)
	}
	post := func(h http.Handler, path, body string) (int, string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		var reply struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
			t.Fatalf("POST %s %q: reply %q: %v", path, body, rec.Body.Bytes(), err)
		}
		return rec.Code, reply.Error
	}
	// N stands for the element's `"name":"h",` member.
	rows := []struct {
		why, body string
		status    int
		scanned   bool
	}{
		{"canonical", `{"queries":[{N"op":"point","key":1}]}`, 200, true},
		{"whitespace-formatted", "{\n  \"queries\": [\n    {N\"op\": \"range\", \"lo\": 1, \"hi\": 9}\n  ]\n}\n", 200, true},
		{"unknown field in a query", `{"queries":[{N"op":"point","key":1,"bogus":1}]}`, 400, false},
		{"unknown field beside queries", `{"queries":[{N"op":"point","key":1}],"bogus":1}`, 400, false},
		{"trailing brace", `{"queries":[{N"op":"point","key":1}]}}`, 400, false},
		{"second object", `{"queries":[{N"op":"point","key":1}]}{"queries":[]}`, 400, false},
		{"trailing garbage after whitespace", `{"queries":[{N"op":"point","key":1}]}` + "\n x", 400, false},
		{"case-variant key", `{"queries":[{N"op":"point","Key":1}]}`, 200, false},
		{"duplicate key", `{"queries":[{N"op":"point","key":1,"key":2}]}`, 200, false},
		{"fraction", `{"queries":[{N"op":"point","key":1.0}]}`, 400, false},
		{"null", `{"queries":[{N"op":"point","key":null}]}`, 200, false},
		{"escaped string", `{"queries":[{N"op":"p\u006fint","key":1}]}`, 200, false},
		{"19-digit key", `{"queries":[{N"op":"point","key":-9223372036854775808}]}`, 200, false},
		{"empty queries", `{"queries":[]}`, 400, true},
		{"missing queries", `{}`, 400, false},
		{"truncated", `{"queries":[{N"op":"point","key":1}`, 400, false},
		{"empty body", ``, 400, false},
		{"not an object", `[{N"op":"point","key":1}]`, 400, false},
		// Over both tiers' 8 MiB body limit: refused while reading, so
		// neither decoder counts it.
		{"oversize", `{"queries":[{N"op":"point","key":1}]}` + strings.Repeat(" ", maxBodyBytes), 400, false},
	}
	var scans, stds int64
	for _, row := range rows {
		rCode, rMsg := post(rt, "/v1/query", strings.ReplaceAll(row.body, "N", `"name":"h",`))
		sCode, sMsg := post(s0, "/v1/hist/h/query", strings.ReplaceAll(row.body, "N", ""))
		if rCode != row.status || sCode != row.status {
			t.Errorf("%s: router HTTP %d (%s), shard HTTP %d (%s), want %d", row.why, rCode, rMsg, sCode, sMsg, row.status)
		}
		// A type error goes on to name the Go type being decoded into,
		// which has a name member on the router only.
		rCut, _, _ := strings.Cut(rMsg, " into Go ")
		sCut, _, _ := strings.Cut(sMsg, " into Go ")
		if rCut != sCut {
			t.Errorf("%s: router says %q, shard says %q", row.why, rMsg, sMsg)
		}
		if row.status == 400 && sMsg != "empty batch" && !strings.HasPrefix(sMsg, "bad request body: ") {
			t.Errorf("%s: error %q", row.why, sMsg)
		}
		switch {
		case len(row.body) > maxBodyBytes:
		case row.scanned:
			scans++
		default:
			stds++
		}
		{
			for tier, m := range map[string]*obs.Registry{"router": rt.Metrics(), "shard": s0.Metrics()} {
				if got := decodeCounts(t, m); got != [2]int64{scans, stds} {
					t.Fatalf("%s: %s wavehist_batch_decode_total scan/std = %v, want [%d %d]", row.why, tier, got, scans, stds)
				}
			}
		}
	}
	if code, msg := post(rt, "/v1/query", `{"queries":[{"op":"point","key":1}]}`); code != 400 || msg != "query 0 has no histogram name" {
		t.Errorf("nameless query: HTTP %d %q", code, msg)
	}
	if code, msg := post(s0, "/v1/hist/h/query", `{"queries":[{"name":"h","op":"point","key":1}]}`); code != 400 || !strings.Contains(msg, `unknown field "name"`) {
		t.Errorf("named query on the shard: HTTP %d %q", code, msg)
	}
}

// decodeCounts reads wavehist_batch_decode_total{decoder="scan"|"std"}.
func decodeCounts(t *testing.T, m *obs.Registry) (counts [2]int64) {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Expose(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.Lint(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	fam := fams["wavehist_batch_decode_total"]
	if fam == nil {
		t.Fatal("no wavehist_batch_decode_total family")
	}
	for _, s := range fam.Samples {
		switch s.Labels["decoder"] {
		case "scan":
			counts[0] = int64(s.Value)
		case "std":
			counts[1] = int64(s.Value)
		}
	}
	return counts
}
