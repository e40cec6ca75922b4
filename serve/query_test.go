package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"wavelethist"
)

// TestEntryBatchAllocationFree pins the batch serving path's steady-state
// guarantee: with reused query/result slices — what the pooled HTTP
// handler and any embedding caller do — answering a batch performs zero
// allocations per sub-query.
func TestEntryBatchAllocationFree(t *testing.T) {
	r := NewRegistry()
	h := buildHist(t, 200000, 1<<14, 256, 3)
	e, err := r.Publish("zipf", h)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]BatchQuery, 256)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = BatchQuery{Op: "point", Key: int64(i * 13 % (1 << 14))}
		} else {
			queries[i] = BatchQuery{Op: "range", Lo: int64(i), Hi: int64(i + 500)}
		}
	}
	results := make([]BatchResult, len(queries))
	if raceEnabled {
		e.Batch(queries, results) // exercise the path; the alloc property needs uninstrumented pools
	} else if a := testing.AllocsPerRun(100, func() { e.Batch(queries, results) }); a != 0 {
		t.Errorf("Batch of %d queries allocates %.1f objects per call; want 0", len(queries), a)
	}
	if n := e.Stats.BatchQueries.View().Count; n == 0 {
		t.Error("batch sub-query stat not recorded")
	}
}

// TestRangeClampContract covers the unified bound semantics at every
// layer: library RangeCount, Entry.Range, and the HTTP range + batch
// endpoints all clamp bounds to the domain and estimate 0 for an empty
// intersection — no layer rejects lo > hi anymore.
func TestRangeClampContract(t *testing.T) {
	h := buildHist(t, 100000, 1<<12, 64, 4)
	dom := h.Domain()

	full := h.RangeCount(0, dom-1)
	if got := h.RangeCount(-500, dom+500); got != full {
		t.Errorf("library clamp: RangeCount(-500, dom+500) = %v, want full-domain %v", got, full)
	}
	if got := h.RangeCount(10, 3); got != 0 {
		t.Errorf("library clamp: RangeCount(10, 3) = %v, want 0", got)
	}
	if got := h.RangeCount(dom+5, dom+9); got != 0 {
		t.Errorf("library clamp: off-domain range = %v, want 0", got)
	}

	r := NewRegistry()
	e, err := r.Publish("zipf", h)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := e.Range(10, 3); err != nil || got != 0 {
		t.Errorf("Entry.Range(10, 3) = (%v, %v), want (0, nil)", got, err)
	}
	if got, err := e.Range(-500, dom+500); err != nil || got != full {
		t.Errorf("Entry.Range clamp = (%v, %v), want (%v, nil)", got, err, full)
	}

	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Registry().Publish("zipf", h); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get := func(url string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", url, resp.StatusCode)
		}
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got := get("/v1/hist/zipf/range?lo=10&hi=3")["estimate"].(float64); got != 0 {
		t.Errorf("HTTP empty range estimate = %v, want 0", got)
	}
	if got := get(fmt.Sprintf("/v1/hist/zipf/range?lo=-500&hi=%d", dom+500))["estimate"].(float64); got != full {
		t.Errorf("HTTP clamped range estimate = %v, want %v", got, full)
	}
}

// TestRange2DEndpoint: GET /v1/hist/{name}/range on a 2D entry takes
// xlo/xhi/ylo/yhi, echoes them, and returns RangeCount; missing
// parameters and 1D-style lo/hi are a 400.
func TestRange2DEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	h := buildHist2D(t, 64, 128, 37)
	e, err := s.Registry().Publish2D("grid", h)
	if err != nil {
		t.Fatal(err)
	}
	rg := getJSON(t, ts.URL+"/v1/hist/grid/range?xlo=3&xhi=40&ylo=0&yhi=63", http.StatusOK)
	if rg["xlo"].(float64) != 3 || rg["xhi"].(float64) != 40 ||
		rg["ylo"].(float64) != 0 || rg["yhi"].(float64) != 63 {
		t.Fatalf("2D range response: %v", rg)
	}
	if uint64(rg["version"].(float64)) != e.Version {
		t.Fatalf("version %v, want %d", rg["version"], e.Version)
	}
	if rg["estimate"].(float64) != h.RangeCount(3, 40, 0, 63) {
		t.Fatalf("estimate %v, want %v", rg["estimate"], h.RangeCount(3, 40, 0, 63))
	}
	getJSON(t, ts.URL+"/v1/hist/grid/range?lo=1&hi=5", http.StatusBadRequest)
	getJSON(t, ts.URL+"/v1/hist/grid/range?xlo=1&xhi=5&ylo=2", http.StatusBadRequest)
}

// TestConcurrentQueriesUnderUpdateLoad is the query-plane race smoke CI
// promotes to a dedicated step: many goroutines hammer point/range/batch
// queries (exercising the shared piece table of each published
// snapshot) while an updater streams key updates through the incremental
// maintainer, forcing frequent republishes of patched snapshots.
func TestConcurrentQueriesUnderUpdateLoad(t *testing.T) {
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := buildHist(t, 100000, 1<<12, 128, 5)
	if _, err := srv.Registry().Publish("hot", h); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const queriers = 4
	const updates = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := make([]BatchQuery, 32)
			for i := range queries {
				queries[i] = BatchQuery{Op: "point", Key: int64((g*37 + i) % (1 << 12))}
				if i%3 == 0 {
					queries[i] = BatchQuery{Op: "range", Lo: int64(i), Hi: int64(i + 999)}
				}
			}
			body, _ := json.Marshal(map[string]any{"queries": queries})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var resp *http.Response
				var err error
				switch i % 3 {
				case 0:
					resp, err = http.Get(ts.URL + fmt.Sprintf("/v1/hist/hot/point?key=%d", (g+i)%(1<<12)))
				case 1:
					resp, err = http.Get(ts.URL + fmt.Sprintf("/v1/hist/hot/range?lo=%d&hi=%d", i%100, i%100+500))
				default:
					resp, err = http.Post(ts.URL+"/v1/hist/hot/query", "application/json", bytes.NewReader(body))
				}
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query returned %d", resp.StatusCode)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
			}
		}(g)
	}
	for i := 0; i < updates; i++ {
		ups := make([]KeyUpdate, republishEvery/2) // a republish every second batch
		for j := range ups {
			ups[j] = KeyUpdate{Key: int64((i*len(ups) + j) % (1 << 12)), Delta: 2}
		}
		body, _ := json.Marshal(map[string]any{"updates": ups})
		resp, err := http.Post(ts.URL+"/v1/hist/hot/updates", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("updates returned %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	close(stop)
	wg.Wait()
}

// BenchmarkHTTPBatch measures the end-to-end HTTP batch path — JSON
// decode through pooled buffers, the shared-index query loop, JSON encode
// — per 256-query batch.
func BenchmarkHTTPBatch(b *testing.B) {
	srv, err := NewServer(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := buildHist(b, 500000, 1<<16, 1024, 6)
	if _, err := srv.Registry().Publish("bench", h); err != nil {
		b.Fatal(err)
	}
	queries := make([]BatchQuery, 256)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = BatchQuery{Op: "point", Key: int64(i * 251 % (1 << 16))}
		} else {
			queries[i] = BatchQuery{Op: "range", Lo: int64(i * 100), Hi: int64(i*100 + 4096)}
		}
	}
	body, _ := json.Marshal(map[string]any{"queries": queries})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/hist/bench/query", bytes.NewReader(body))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// TestBatchPoolDoesNotLeakAcrossRequests pins the pooled-buffer hygiene
// of the batch handler: a request that omits fields (omitempty zero
// values) must not inherit values a previous request left in the
// recycled decode buffers.
func TestBatchPoolDoesNotLeakAcrossRequests(t *testing.T) {
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := buildHist(t, 100000, 1<<12, 64, 7)
	if _, err := srv.Registry().Publish("zipf", h); err != nil {
		t.Fatal(err)
	}
	post := func(body string) []any {
		t.Helper()
		req := httptest.NewRequest("POST", "/v1/hist/zipf/query", bytes.NewReader([]byte(body)))
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("batch returned %d: %s", w.Code, w.Body)
		}
		var out map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out["results"].([]any)
	}
	// Request A populates the pooled buffers with a wide range and a key.
	post(`{"queries":[{"op":"range","lo":1,"hi":4000},{"op":"point","key":99}]}`)
	// Request B omits hi (and key): the range is [5, 0] — empty, so the
	// clamp contract demands exactly 0; the point must be key 0, not 99.
	for i := 0; i < 10; i++ { // several rounds so a pooled object is reused
		results := post(`{"queries":[{"op":"range","lo":5},{"op":"point"}]}`)
		if got := results[0].(map[string]any)["estimate"].(float64); got != 0 {
			t.Fatalf("omitted hi inherited a stale value: estimate %v, want 0", got)
		}
		want := h.PointEstimate(0)
		if got := results[1].(map[string]any)["estimate"].(float64); got != want {
			t.Fatalf("omitted key inherited a stale value: estimate %v, want %v", got, want)
		}
	}
}

// overflowingHist is a histogram over [0, 1024) whose coefficients are
// all finite but whose estimates over a few low keys overflow: three
// coefficients of magnitude MaxFloat64 whose supports nest around key 3
// (w_64 over [0, 16), w_256 over [0, 4), w_513 over [2, 4)) all add to
// v̂(3) and w_64 alone overflows the sum over [0, 10]. Keys from 16 up
// estimate 0.
func overflowingHist(t *testing.T) *wavelethist.Histogram {
	t.Helper()
	b := binary.LittleEndian.AppendUint32(nil, 0x57485354) // "WHST"
	b = binary.LittleEndian.AppendUint32(b, 3)
	b = binary.LittleEndian.AppendUint64(b, 1<<10)
	for _, c := range []struct {
		index uint32
		value float64
	}{{64, -math.MaxFloat64}, {256, math.MaxFloat64}, {513, math.MaxFloat64}} {
		b = binary.LittleEndian.AppendUint32(b, c.index)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.value))
	}
	h, err := wavelethist.UnmarshalHistogram(b)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestNonFiniteEstimateIsQueryError: an estimate that overflows float64
// is a per-query error, never a served +Inf (which is not JSON). A
// histogram whose coefficients are finite but whose estimates over some
// keys overflow (updates can no longer make one: a delta past 2^53 is
// refused) answers a GET of one with 400, and a batch, large or small,
// answers each query exactly as its GET does. Every body is valid JSON.
func TestNonFiniteEstimateIsQueryError(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.Registry().Publish("h", overflowingHist(t)); err != nil {
		t.Fatal(err)
	}
	fetch := func(method, path string, body []byte) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if !json.Valid(b) {
			t.Fatalf("%s %s: HTTP %d body is not JSON: %s", method, path, resp.StatusCode, b)
		}
		return resp.StatusCode, b
	}
	for _, p := range []string{"point?key=3", "range?lo=0&hi=10"} {
		if code, body := fetch(http.MethodGet, "/v1/hist/h/"+p, nil); code != http.StatusBadRequest {
			t.Errorf("GET %s: HTTP %d, want 400: %s", p, code, body)
		}
	}

	var queries []BatchQuery
	for k := int64(0); k < 12; k++ {
		queries = append(queries, BatchQuery{Op: "point", Key: k})
	}
	for _, r := range [][2]int64{{0, 10}, {3, 3}, {4, 10}, {0, 1023}, {600, 700}, {512, 1023}, {10, 0}, {-5, 2}} {
		queries = append(queries, BatchQuery{Op: "range", Lo: r[0], Hi: r[1]})
	}
	overflowed := 0
	for _, batch := range [][]BatchQuery{queries, queries[:4]} {
		body, _ := json.Marshal(map[string]any{"queries": batch})
		code, raw := fetch(http.MethodPost, "/v1/hist/h/query", body)
		if code != http.StatusOK {
			t.Fatalf("batch of %d: HTTP %d: %s", len(batch), code, raw)
		}
		var got struct{ Results []BatchResult }
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		for i, q := range batch {
			path := fmt.Sprintf("point?key=%d", q.Key)
			if q.Op == "range" {
				path = fmt.Sprintf("range?lo=%d&hi=%d", q.Lo, q.Hi)
			}
			code, one := fetch(http.MethodGet, "/v1/hist/h/"+path, nil)
			var want struct {
				Estimate float64 `json:"estimate"`
				Error    string  `json:"error"`
			}
			if err := json.Unmarshal(one, &want); err != nil {
				t.Fatal(err)
			}
			if code != http.StatusOK {
				overflowed++
			}
			if r := got.Results[i]; r.Estimate != want.Estimate || r.Error != want.Error {
				t.Errorf("batch of %d, query %d (%s): %+v, GET answers %d %+v", len(batch), i, path, r, code, want)
			}
		}
	}
	if overflowed == 0 {
		t.Fatal("no query overflowed")
	}
}

// TestOverflowingUpdateBatchRefused: an update batch holding a delta past
// 2^53 in magnitude is refused whole with 400 naming the first such
// update, and leaves the maintainer bit-identical — its WMNT encoding and
// the entry file on disk, which holds it. A delta of exactly 2^53 is
// accepted.
func TestOverflowingUpdateBatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{SnapshotDir: dir})
	if _, err := s.Registry().Publish("h", buildHist(t, 20000, 1<<10, 30, 8)); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/hist/h/updates"
	postJSON(t, url, map[string]any{"updates": []KeyUpdate{{Key: 3, Delta: 5}}, "flush": true}, http.StatusOK)
	digests := func() (live, disk [32]byte) {
		t.Helper()
		s.mu.Lock()
		m := s.maints["h"]
		s.mu.Unlock()
		m.mu.Lock()
		b, err := m.mh.MarshalBinary()
		m.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.ReadFile(filepath.Join(dir, "h"+fileExt))
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b), sha256.Sum256(f)
	}
	live, disk := digests()
	if live != disk {
		t.Fatal("the entry file does not hold the live maintainer's state")
	}
	for _, tc := range []struct {
		updates []KeyUpdate
		want    string
	}{
		{[]KeyUpdate{{Key: 3, Delta: 1e308}}, "update 0 (key 3)"},
		{[]KeyUpdate{{Key: 1, Delta: 2}, {Key: 7, Delta: -(1<<53 + 2)}, {Key: 4, Delta: 1e300}}, "update 1 (key 7)"},
		{[]KeyUpdate{{Key: 9, Delta: 1}, {Key: 2, Delta: 1 << 54}}, "update 1 (key 2)"},
	} {
		for _, flush := range []bool{false, true} {
			out := postJSON(t, url, map[string]any{"updates": tc.updates, "flush": flush}, http.StatusBadRequest)
			if msg, _ := out["error"].(string); !strings.Contains(msg, tc.want) {
				t.Errorf("%+v: error %q does not name %q", tc.updates, msg, tc.want)
			}
		}
		if l, d := digests(); l != live || d != disk {
			t.Fatalf("%+v: a refused batch changed the maintainer (live %v, entry file %v)", tc.updates, l != live, d != disk)
		}
	}
	postJSON(t, url, map[string]any{"updates": []KeyUpdate{{Key: 3, Delta: 1 << 53}, {Key: 3, Delta: -(1 << 53)}}, "flush": true}, http.StatusOK)
}

// TestUpdatesBodyDecoders: a canonical updates body takes the scanner; a
// valid body the scanner declines (fractional and exponent deltas, a
// case-variant member) takes encoding/json and is applied all the same,
// as an in-process maintainer replay of the same updates shows; a bad
// body's 400 carries encoding/json's own text. The family
// wavehist_batch_decode_total counts each body by its decoder, and the
// reply's bytes are those of the map[string]any the handler once encoded.
func TestUpdatesBodyDecoders(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	h := buildHist(t, 20000, 1<<10, 30, 8)
	if _, err := s.Registry().Publish("h", h); err != nil {
		t.Fatal(err)
	}
	ref, err := wavelethist.MaintainHistogram(h, h.K(), 0)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/hist/h/updates", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	decoded := func() (scan, std float64) {
		t.Helper()
		for _, smp := range scrape(t, ts.URL)["wavehist_batch_decode_total"].Samples {
			if smp.Labels["decoder"] == "scan" {
				scan = smp.Value
			} else {
				std = smp.Value
			}
		}
		return scan, std
	}
	for i, tc := range []struct {
		body    string
		updates []KeyUpdate
		scanned bool
	}{
		{`{"updates":[{"key":3,"delta":5},{"key":700,"delta":-1}],"flush":true}`, []KeyUpdate{{Key: 3, Delta: 5}, {Key: 700, Delta: -1}}, true},
		{`{"updates":[{"key":3,"delta":0.5},{"key":9,"delta":2e1}],"flush":true}`, []KeyUpdate{{Key: 3, Delta: 0.5}, {Key: 9, Delta: 20}}, false},
		{`{"Updates":[{"Key":12,"delta":-0}],"flush":true}`, []KeyUpdate{{Key: 12, Delta: math.Copysign(0, -1)}}, false},
	} {
		scan0, std0 := decoded()
		code, out := post(tc.body)
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", tc.body, code, out)
		}
		if scan, std := decoded(); (scan-scan0 == 1) != tc.scanned || scan+std != scan0+std0+1 {
			t.Errorf("%s: decode counts scan %v→%v std %v→%v, want scanned %v", tc.body, scan0, scan, std0, std, tc.scanned)
		}
		var reply struct {
			Applied     int
			Name        string
			Republished bool
			Tracked     int
			Version     uint64
		}
		if err := json.Unmarshal(out, &reply); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]any{
			"name": reply.Name, "applied": reply.Applied, "republished": reply.Republished,
			"version": reply.Version, "tracked": reply.Tracked,
		})
		if !bytes.Equal(out, want.Bytes()) || reply.Applied != len(tc.updates) || !reply.Republished || reply.Name != "h" {
			t.Errorf("reply %q, want the map encoding %q with %d applied", out, want.Bytes(), len(tc.updates))
		}
		for _, u := range tc.updates {
			ref.Update(u.Key, u.Delta)
		}
		e, _ := s.Registry().Lookup("h")
		if !slices.Equal(e.H.Coefficients(), ref.Histogram().Coefficients()) {
			t.Fatalf("body %d: served coefficients differ from the in-process replay", i)
		}
	}
	for _, tc := range []struct{ body, want string }{
		{`{"updates":[{"key":"3"}]}`, "bad request body: json: cannot unmarshal string into Go struct field KeyUpdate.updates.key of type int64"},
		{`{"updates":[{"key":3,"weight":1}]}`, `bad request body: json: unknown field "weight"`},
		{`{"updates":[],"flush":1}`, "bad request body: json: cannot unmarshal number into Go struct field .flush of type bool"},
		{`{"updates":[{"key":1e400}]}`, "bad request body: json: cannot unmarshal number 1e400 into Go struct field KeyUpdate.updates.key of type int64"},
		{`{"updates":[]} {}`, "bad request body: invalid token { after top-level value"},
		{`{"updates":[{"key":1}`, "bad request body: unexpected EOF"},
	} {
		code, out := post(tc.body)
		var got apiError
		if err := json.Unmarshal(out, &got); code != http.StatusBadRequest || err != nil || got.Error != tc.want {
			t.Errorf("%s: HTTP %d %q, want 400 %q", tc.body, code, got.Error, tc.want)
		}
	}
}
