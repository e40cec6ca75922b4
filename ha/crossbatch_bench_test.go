package ha

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"wavelethist/serve"
)

// newDashboardFixture is the benchmark's routed_batch shape in miniature:
// a router over two httptest shards, four names on each, and one
// marshalled POST /v1/query body of 256 point and range queries spread
// round-robin over the eight names.
func newDashboardFixture(tb testing.TB) (*Router, []byte) {
	tb.Helper()
	var shards []Shard
	nodes := map[string]*serve.Server{}
	for _, id := range []string{"s0", "s1"} {
		s, err := serve.NewServer(serve.Config{Shard: id})
		if err != nil {
			tb.Fatal(err)
		}
		ts := httptest.NewServer(s)
		tb.Cleanup(ts.Close)
		nodes[id] = s
		shards = append(shards, Shard{ID: id, Primary: ts.URL})
	}
	rt, err := NewRouter(shards)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	h := buildTestHist(tb, 14)
	var names []string
	perShard := map[string]int{}
	for i := 0; len(names) < 8; i++ {
		name := fmt.Sprintf("dash-%d", i)
		id := rt.Shard(name).ID
		if perShard[id] == 4 {
			continue
		}
		perShard[id]++
		if _, err := nodes[id].Registry().Publish(name, h); err != nil {
			tb.Fatal(err)
		}
		names = append(names, name)
	}
	queries := make([]NamedQuery, 256)
	for i := range queries {
		q := NamedQuery{Name: names[i%len(names)]}
		if i%4 == 0 {
			q.Op, q.Lo, q.Hi = "range", int64(i), int64(i+900)
		} else {
			q.Op, q.Key = "point", int64(i*37%(1<<12))
		}
		queries[i] = q
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		tb.Fatal(err)
	}
	return rt, body
}

// serveCrossBatch runs one POST /v1/query through the router's handler
// (no client socket; the two shard hops are real loopback HTTP).
func serveCrossBatch(tb testing.TB, rt *Router, body []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		tb.Fatalf("HTTP %d: %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkRouterCrossBatch is the routed dashboard plan end to end minus
// the client's own socket: body scan, shard grouping, two frame hops,
// scatter, encode.
func BenchmarkRouterCrossBatch(b *testing.B) {
	rt, body := newDashboardFixture(b)
	serveCrossBatch(b, rt, body) // dial the shards, fill the pools
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveCrossBatch(b, rt, body)
	}
}

// TestCrossBatchHopAllocs holds the whole request — router handler, both
// upstream round trips, both shards' frame handlers (AllocsPerRun counts
// every goroutine) — to an allocation ceiling. It measures ~230, nearly
// all net/http's own at both ends of the two hops: the client's body is
// scanned into pooled slices (dist.QueryBatch) and costs none. With
// encoding/json on the body it measured ~750, and the per-name JSON
// scatter before that ~2 140 on the same request.
func TestCrossBatchHopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool allocate")
	}
	rt, body := newDashboardFixture(t)
	for i := 0; i < 4; i++ {
		serveCrossBatch(t, rt, body)
	}
	const ceiling = 350
	if a := testing.AllocsPerRun(50, func() { serveCrossBatch(t, rt, body) }); a > ceiling {
		t.Errorf("a 256-query cross-shard batch allocates %v times, ceiling %d", a, ceiling)
	}
}
