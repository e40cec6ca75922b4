package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smallSizes shrinks every input (n = 2^16) so a whole workload — three
// set-ups, verification, warm-up and a 0.2s timed phase — runs in about a
// second. Domain, k and the batch shapes stay as in a real run.
func smallSizes() sizes {
	sz := defaultSizes()
	sz.ExactRecords, sz.ExactChunk = 1<<16, 8<<10
	sz.SampledRecs, sz.SampledChunk = 1<<16, 8<<10
	sz.ServeRecords = 1 << 16
	sz.MinPairs = 1
	sz.Gets, sz.Batches, sz.UpdateBodies = 256, 8, 64
	return sz
}

func TestPercentileRule(t *testing.T) {
	lat := make([]int64, minTailSamples-1)
	for i := range lat {
		lat[i] = int64(len(lat) - i) // 999 … 1, unsorted
	}
	got := summarize(lat, 1)
	if got.HasP99 || got.P99 != 0 {
		t.Fatalf("p99 reported from %d samples: %+v", got.N, got)
	}
	if got.P50 != 500 || got.N != minTailSamples-1 {
		t.Fatalf("median of 1..999 = %v (n=%d), want 500", got.P50, got.N)
	}
	lat = append(lat, 1000)
	got = summarize(lat, 1)
	if !got.HasP99 || got.P99 != 990 {
		t.Fatalf("p99 of 1..1000 = %v (has=%v), want 990", got.P99, got.HasP99)
	}
	if got.P50 != 500.5 {
		t.Fatalf("median of 1..1000 = %v, want 500.5", got.P50)
	}
	if us := summarize([]int64{3000, 1000, 2000}, 1e3); us.P50 != 2 {
		t.Fatalf("median in us = %v, want 2", us.P50)
	}
}

// requestStream is every byte the load generator would send for a seed:
// GET paths, batch bodies and update bodies, from the generators the
// workloads use.
func requestStream(t *testing.T, seed uint64, sv *served) []byte {
	t.Helper()
	sz := smallSizes()
	rc := &runCtx{seed: seed, sz: sz}
	names := make([]string, sz.Names)
	for i := range names {
		names[i] = "h" + string(rune('0'+i))
	}
	var b bytes.Buffer
	rng := fork(seed, purposeQueries)
	for _, kind := range []string{"point", "range"} {
		for _, q := range genQueries(rng, sz.Gets, sz, kind, sv.h) {
			b.WriteString(q.path(names[q.name]))
			b.WriteByte('\n')
		}
	}
	for _, batch := range genBatches(rc, sv.h) {
		b.Write(namedBatchBody(names, batch))
	}
	for _, us := range genUpdates(rc) {
		b.Write(updatesBody(us, false))
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	sv, err := buildServed(smallSizes(), 7)
	if err != nil {
		t.Fatal(err)
	}
	a, again, other := requestStream(t, 7, sv), requestStream(t, 7, sv), requestStream(t, 8, sv)
	if len(a) == 0 || !bytes.Equal(a, again) {
		t.Fatalf("seed 7 gave two different request streams (%d and %d bytes)", len(a), len(again))
	}
	if bytes.Equal(a, other) {
		t.Fatal("seeds 7 and 8 gave the same request stream")
	}
	// The dataset comes from the seed too.
	sv8, err := buildServed(smallSizes(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if sameCoefficients(sv.h, sv8.h, true) {
		t.Fatal("seeds 7 and 8 gave the same serving histogram")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b, overlapping a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c, running past its parent", Start: 90, End: 120},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
		{ID: 6, Name: "another request", Start: 200, End: 260},
	}
	want := map[int]int64{
		1: 100 - (40 + 10), // a and b cover [10,50] once; c is clipped to [90,100]
		2: 20,
		3: 30 - 20,
		4: 30,
		5: 20,
		6: 60,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestRecorderLinksSpans(t *testing.T) {
	var none *recorder
	if id := none.begin("x", 0, 1); id != 0 || none.count() != 0 {
		t.Fatal("a nil recorder recorded a span")
	}
	none.end(0)
	rec := newRecorder()
	root := rec.begin("request", 0, 9)
	child := rec.begin("layer", root, 9)
	rec.end(child)
	rec.end(root)
	dir := t.TempDir()
	if err := rec.write(dir, "w"); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/trace-w.json")
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].Trace != 9 || spans[1].Trace != 9 ||
		spans[1].Start < spans[0].Start || spans[1].End > spans[0].End {
		t.Fatalf("spans written: %+v", spans)
	}
}

func TestSpecMatchesContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadSpecs); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloadSpecs {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := impls[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(impls) != len(workloadSpecs) {
		t.Errorf("%d implementations for %d workloads", len(impls), len(workloadSpecs))
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range endToEnd {
		check("end-to-end", m.Name)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check("per-layer", m.Name)
	}

	// BENCHMARK.json is these tables and nothing else.
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the benchmark's tables; regenerate it with -print-spec")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(file))
	}
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadSpecs) || len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json read back as %d workloads and %d end-to-end metrics", len(spec.Workloads), len(spec.EndToEnd))
	}
}

// TestSmoke runs every workload end to end on shrunken data: every oracle
// check must pass, every end-to-end metric must be present and non-zero,
// and the last line printed must be the object the driver reads.
func TestSmoke(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			rc := &runCtx{workload: w.Name, seed: 3, seconds: 0.2, sz: smallSizes(), outDir: t.TempDir(), log: io.Discard}
			res, err := runEndToEnd(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.Problems)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m.Name]; !ok || !(v.Value > 0) || v.Unit != m.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", m.Name, v, m.Unit)
				}
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
			}
			if last.Correct == nil || last.Attempted == nil || last.Failed == nil || len(last.Metrics) != len(endToEnd) {
				t.Fatalf("last line lacks a key or a metric: %s", lines[len(lines)-1])
			}
		})
	}
}

// TestTracedSmoke takes one in-process and one HTTP workload apart on
// shrunken data: every metric a layer sets must be in the per-layer table
// (set reports a problem otherwise) and every layer check must pass.
func TestTracedSmoke(t *testing.T) {
	for _, w := range []string{"embed_batch", "serve_mixed"} {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			rc := &runCtx{workload: w, seed: 3, seconds: 0.4, sz: smallSizes(), outDir: dir, log: io.Discard}
			res, err := runTraced(rc)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("failed %d of %d: %v", res.Failed, res.Attempted, res.Problems)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("%d metrics reported, want all %d per-layer metrics", len(res.Metrics), len(perLayer))
			}
			for _, name := range []string{"datagen.zipf_mrec_per_s", "serve.entry.point_ns", "trace.spans", "proc.cpu_us_per_op"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want a positive value", name, res.Metrics[name].Value)
				}
			}
			if res.Metrics["ha.router.point_us"].Value != 0 {
				t.Error("a workload without a router reports router time")
			}
			if _, err := os.Stat(dir + "/trace-" + w + ".json"); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestCompare(t *testing.T) {
	spec := &benchmarkSpec{
		Workloads: []specWorkload{{"w"}},
		EndToEnd: []specMetric{
			{"rate", "1/s", "higher", 0.10},
			{"lat", "us", "lower", 0.10},
			{"absent", "us", "lower", 0.10},
		},
	}
	side := func(rate, lat []float64) map[string]map[string][]float64 {
		return map[string]map[string][]float64{"w": {"rate": rate, "lat": lat}}
	}
	a := side([]float64{100, 90, 110}, []float64{50})
	var out bytes.Buffer
	if code := compareSides(spec, a, side([]float64{95}, []float64{54}), &out); code != 0 {
		t.Errorf("5%% fewer and 8%% slower is inside a 10%% bound; exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a metric missing on both sides must read unresolved:\n%s", out.String())
	}
	out.Reset()
	if code := compareSides(spec, a, side([]float64{85}, []float64{50}), &out); code != 1 || !strings.Contains(out.String(), "OUT OF BOUNDS") {
		t.Errorf("15%% fewer is outside a 10%% bound; exit %d\n%s", code, out.String())
	}
	if code := compareSides(spec, a, side([]float64{200}, []float64{56}), io.Discard); code != 1 {
		t.Errorf("12%% slower is outside a 10%% bound; exit %d", code)
	}
	if code := compareSides(spec, a, side([]float64{200}, []float64{10}), io.Discard); code != 0 {
		t.Errorf("an improvement is never out of bounds; exit %d", code)
	}
}
