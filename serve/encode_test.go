package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestEstimateEncodingMatchesJSON: the hand-rolled single-query encoder
// produces output encoding/json parses back to exactly the same values,
// across tricky floats.
func TestEstimateEncodingMatchesJSON(t *testing.T) {
	for _, est := range []float64{0, 1, -1, 3.5, 1234567.25, 1e-9, -2.5e-9, 4.9e21, 0.1, math.MaxFloat64} {
		b := AppendEstimate(nil, "my.hist-1", 42, est,
			EstimateField{"lo", -5}, EstimateField{"hi", 1 << 40})
		var out struct {
			Name     string  `json:"name"`
			Version  uint64  `json:"version"`
			Lo       int64   `json:"lo"`
			Hi       int64   `json:"hi"`
			Estimate float64 `json:"estimate"`
		}
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("est %g: invalid JSON %q: %v", est, b, err)
		}
		if out.Name != "my.hist-1" || out.Version != 42 || out.Lo != -5 || out.Hi != 1<<40 || out.Estimate != est {
			t.Fatalf("est %g: round-tripped to %+v (%s)", est, out, b)
		}
		// And byte-compatibility of the float with encoding/json itself.
		std, _ := json.Marshal(est)
		if got := string(appendJSONFloat(nil, est)); got != string(std) {
			t.Errorf("float %g: encoded %q, encoding/json says %q", est, got, std)
		}
	}
	// Single-field form (1D point).
	b := AppendEstimate(nil, "h", 1, 2.5, EstimateField{"key", 7})
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil || len(m) != 4 || m["key"].(float64) != 7 {
		t.Fatalf("point form: %s (%v)", b, err)
	}
}

// TestBatchResultsEncodingMatchesJSON: the append encoder's bytes equal
// json.Encoder's for the same results — fixed and scientific floats,
// and error strings that need every kind of escaping json applies
// (quotes, control characters, HTML, U+2028, invalid UTF-8).
func TestBatchResultsEncodingMatchesJSON(t *testing.T) {
	results := []BatchResult{
		{Estimate: 0}, {Estimate: -0.5}, {Estimate: 1234567.25}, {Estimate: 1e-9}, {Estimate: -2.5e-7},
		{Estimate: 4.9e21}, {Estimate: 999999999999999868928}, {Estimate: math.MaxFloat64},
		{Error: "serve: key 4096 outside domain [0, 4096)"},
		{Error: `no histogram "x"`},
		{Error: "a<b>&c \\ back\nline\ttab\x01\x7f"},
		{Error: "sep\u2028arator \xff bad utf8 é"},
		{Estimate: 2.5, Error: "both set"},
	}
	for n := 1; n <= len(results); n++ {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{"results": results[:n]}); err != nil {
			t.Fatal(err)
		}
		if got := AppendBatchResults(nil, results[:n]); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("first %d results:\n got %s\nwant %s", n, got, want.Bytes())
		}
	}
}

// TestBatchResponseEncodingMatchesJSON: the envelope POST
// /v1/hist/{name}/query appends is byte for byte what json.Encoder wrote
// for the struct it replaced — estimates that are negative, ≥1e21, <1e-6
// and 0, per-query errors needing quote and HTML escaping — and the
// handler serves those bytes.
func TestBatchResponseEncodingMatchesJSON(t *testing.T) {
	type batchResponse struct {
		Name    string        `json:"name"`
		Version uint64        `json:"version"`
		Results []BatchResult `json:"results"`
	}
	results := []BatchResult{
		{Estimate: -0.5}, {Estimate: 4.9e21}, {Estimate: 1e21}, {Estimate: -2.5e-7}, {Estimate: 9.99e-7}, {Estimate: 0},
		{Estimate: 1234567.25}, {Estimate: math.MaxFloat64},
		{Error: `no histogram "x"`},
		{Error: "a<b>&c \\ back\nline\ttab\x01\x7f"},
		{Error: "sep\u2028arator \xff bad utf8 é"},
	}
	for n := 0; n <= len(results); n++ {
		for _, name := range []string{"my.hist-1", `odd"<name>`} {
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(&batchResponse{Name: name, Version: uint64(n) << 40, Results: results[:n]}); err != nil {
				t.Fatal(err)
			}
			if got := appendBatchResponse(nil, name, uint64(n)<<40, results[:n]); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("first %d results:\n got %s\nwant %s", n, got, want.Bytes())
			}
		}
	}

	s, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Registry().Publish("h", buildHist(t, 20000, 1<<12, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	queries := []BatchQuery{{Op: "point", Key: 7}, {Op: "range", Lo: 3, Hi: 900}, {Op: "point", Key: 1 << 12}, {Op: "<sum>"}}
	served := make([]BatchResult, len(queries))
	e.Batch(queries, served)
	var want bytes.Buffer
	json.NewEncoder(&want).Encode(&batchResponse{Name: "h", Version: e.Version, Results: served})
	body, _ := json.Marshal(map[string]any{"queries": queries})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/hist/h/query", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want.Bytes()) || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("HTTP %d (%s):\n got %s\nwant %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body.Bytes(), want.Bytes())
	}
}

// TestPointRangeEndpointsStillServe: the rewritten handlers answer with
// the same fields the JSON-encoder versions did.
func TestPointRangeEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	h := buildHist(t, 20000, 1<<10, 30, 8)
	e, err := s.Registry().Publish("p", h)
	if err != nil {
		t.Fatal(err)
	}
	pt := getJSON(t, ts.URL+"/v1/hist/p/point?key=3", http.StatusOK)
	if pt["name"] != "p" || uint64(pt["version"].(float64)) != e.Version || pt["key"].(float64) != 3 {
		t.Fatalf("point response: %v", pt)
	}
	if pt["estimate"].(float64) != h.PointEstimate(3) {
		t.Fatalf("point estimate %v, want %v", pt["estimate"], h.PointEstimate(3))
	}
	rg := getJSON(t, ts.URL+"/v1/hist/p/range?lo=10&hi=200", http.StatusOK)
	if rg["lo"].(float64) != 10 || rg["hi"].(float64) != 200 || rg["estimate"].(float64) != h.RangeCount(10, 200) {
		t.Fatalf("range response: %v", rg)
	}
}

// TestAppendEstimateAllocFree: steady-state single-query encoding does
// not allocate once the pooled buffer has warmed up.
func TestAppendEstimateAllocFree(t *testing.T) {
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendEstimate(buf[:0], "some-histogram", 123456, 42.75,
			EstimateField{"lo", 17}, EstimateField{"hi", 92233720368})
	})
	if allocs != 0 {
		t.Fatalf("AppendEstimate allocates %v times per call", allocs)
	}
}

// BenchmarkPointEndpoint measures the full handler path of the alloc-free
// single-query encoder.
func BenchmarkPointEndpoint(b *testing.B) {
	s, err := NewServer(Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := buildHist(b, 100000, 1<<12, 64, 9)
	if _, err := s.Registry().Publish("bench", h); err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/hist/bench/point?key=17", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatal(rec.Code)
		}
	}
}
