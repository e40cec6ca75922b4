package serve

import (
	"bytes"
	"encoding"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"wavelethist"
)

func buildHist(t testing.TB, records int64, domain int64, k int, seed uint64) *wavelethist.Histogram {
	t.Helper()
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: records, Domain: domain, Alpha: 1.1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := wavelethist.Build(ds, wavelethist.TwoLevelS, wavelethist.Options{K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Histogram
}

func TestRegistryPublishLookupVersion(t *testing.T) {
	r := NewRegistry()
	if v := r.Version(); v != 0 {
		t.Fatalf("fresh registry version = %d", v)
	}
	h := buildHist(t, 20000, 1<<12, 20, 1)
	e, err := r.Publish("zipf", h)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 1 || r.Version() != 1 {
		t.Fatalf("after publish: entry v%d, registry v%d", e.Version, r.Version())
	}
	got, ok := r.Lookup("zipf")
	if !ok || got.H != h {
		t.Fatal("lookup did not return the published histogram")
	}
	// Republish bumps the version and carries stats over.
	got.Stats.Point.Add(7, 0)
	e2, err := r.Publish("zipf", buildHist(t, 20000, 1<<12, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version != 2 {
		t.Fatalf("republished entry version = %d", e2.Version)
	}
	if e2.Stats != got.Stats || e2.Stats.Point.View().Count != 7 {
		t.Fatal("stats did not carry across republish")
	}
	if !r.Drop("zipf") {
		t.Fatal("drop failed")
	}
	if _, ok := r.Lookup("zipf"); ok {
		t.Fatal("lookup succeeded after drop")
	}
	if r.Version() != 3 {
		t.Fatalf("drop did not advance version: %d", r.Version())
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	r := NewRegistry()
	h := buildHist(t, 1000, 1<<8, 5, 1)
	for _, name := range []string{"", "..", "a/b", "a b", "../../etc/passwd", string(make([]byte, 200))} {
		if _, err := r.Publish(name, h); err == nil {
			t.Errorf("published under bad name %q", name)
		}
	}
}

func TestRegistryPersistence(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := buildHist(t, 20000, 1<<12, 25, 3)
	if _, err := r.Publish("persisted", h); err != nil {
		t.Fatal(err)
	}

	xs := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	ds2, err := wavelethist.NewDataset2DFromPairs(xs, xs, 8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := wavelethist.Build2D(ds2, wavelethist.SendV2D, wavelethist.Options{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Publish2D("grid", res2.Histogram); err != nil {
		t.Fatal(err)
	}

	// A fresh registry over the same dir serves the same estimates.
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := r2.Lookup("persisted")
	if !ok {
		t.Fatal("persisted histogram missing after reopen")
	}
	for x := int64(0); x < 1<<12; x += 101 {
		want := h.RangeCount(x, x+50)
		got, err := e.Range(x, x+50)
		if err != nil || got != want {
			t.Fatalf("range(%d) after reload: got %v (%v), want %v", x, got, err, want)
		}
	}
	e2, ok := r2.Lookup("grid")
	if !ok || !e2.Is2D() {
		t.Fatal("2D histogram missing after reopen")
	}
	got := make([]BatchResult, 1)
	e2.Batch([]BatchQuery{{Op: "point", X: 3, Y: 3}}, got)
	if got[0].Error != "" || got[0].Estimate != res2.Histogram.PointEstimate(3, 3) {
		t.Fatalf("2D point after reload: %+v", got[0])
	}

	// A corrupt snapshot file fails the open rather than loading silently.
	if err := os.WriteFile(filepath.Join(dir, "evil.whst"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRegistry(dir); err == nil {
		t.Fatal("OpenRegistry accepted a corrupt snapshot")
	}
}

// TestRegistryLegacyFiles: a file an older build left in the snapshot dir
// follows one rule at open. A <name>.wh2d, already a WH2D blob, is renamed
// once to <name>.whst. A <name>.wmnt maintainer sidecar is removed with
// one log line naming it, and the name's next update reseeds from the
// published top-k, counted as source="published". A corrupt maintained
// entry file fails the open like any corrupt snapshot.
func TestRegistryLegacyFiles(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	blob := func(m encoding.BinaryMarshaler) []byte {
		t.Helper()
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	h := buildHist(t, 20000, 1<<12, 30, 5)
	grid := blob(buildHist2D(t, 64, 20, 3))
	seeded, err := wavelethist.MaintainHistogram(h, h.K(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fromPublished := blob(seeded)
	seeded.Update(42, 500) // the sidecar's state is not the published top-k
	sidecar := blob(seeded)
	gone := func(t *testing.T, path string) {
		t.Helper()
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s still there (%v)", filepath.Base(path), err)
		}
	}

	for _, tc := range []struct {
		name  string
		files map[string][]byte
		check func(t *testing.T, dir string, s *Server) // nil: the open fails
	}{
		{"wh2d renamed", map[string][]byte{"g.wh2d": grid}, func(t *testing.T, dir string, s *Server) {
			if e, ok := s.Registry().Lookup("g"); !ok || !e.Is2D() {
				t.Fatal("2D entry not served")
			}
			gone(t, filepath.Join(dir, "g.wh2d"))
			if b, err := os.ReadFile(filepath.Join(dir, "g"+fileExt)); err != nil || !bytes.Equal(b, grid) {
				t.Fatalf("g.whst is not the renamed WH2D blob (%v)", err)
			}
			r, err := OpenRegistry(dir)
			if err != nil {
				t.Fatal(err)
			}
			if e, ok := r.Lookup("g"); !ok || !e.Is2D() {
				t.Fatal("2D entry not served after a second open")
			}
		}},
		{"wmnt removed", map[string][]byte{"m" + fileExt: blob(h), "m.wmnt": sidecar}, func(t *testing.T, dir string, s *Server) {
			gone(t, filepath.Join(dir, "m.wmnt"))
			if n := strings.Count(logged.String(), "m.wmnt"); n != 1 {
				t.Errorf("removal logged %d times, want once naming m.wmnt:\n%s", n, logged.String())
			}
			e, _ := s.Registry().Lookup("m")
			m, err := s.maintainer(e)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob(m.mh), fromPublished) {
				t.Error("maintainer not reseeded from the published top-k")
			}
			if p, sn := s.seeds["published"].Value(), s.seeds["snapshot"].Value(); p != 1 || sn != 0 {
				t.Errorf("seeds published=%d snapshot=%d, want 1 and 0", p, sn)
			}
		}},
		{"corrupt maintained entry", map[string][]byte{"m" + fileExt: append(sidecar[:len(sidecar):len(sidecar)], 0)}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, b := range tc.files {
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			logged.Reset()
			s, err := NewServer(Config{SnapshotDir: dir})
			if tc.check == nil {
				if err == nil {
					t.Fatal("open accepted a corrupt maintained entry file")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, dir, s)
		})
	}
}

// TestMaintainedEntryFileServesBuiltHistogram: a "maintain" build writes
// its maintainer's state as the entry file, and a restart serves that
// state's histogram. For every method below it answers every point and a
// sweep of ranges bit for bit as the built histogram did.
func TestMaintainedEntryFileServesBuiltHistogram(t *testing.T) {
	const u = 1 << 12
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{Records: 20000, Domain: u, Alpha: 1.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, method := range []wavelethist.Method{wavelethist.SendV, wavelethist.HWTopk, wavelethist.TwoLevelS, wavelethist.SendCoef} {
		t.Run(string(method), func(t *testing.T) {
			res, err := wavelethist.Build(ds, method, wavelethist.Options{K: 30, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			h := res.Histogram
			mh, err := wavelethist.MaintainHistogram(h, h.K(), 0)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			r, err := OpenRegistry(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.publishAs(&Entry{Name: "m", H: h}, mh); err != nil {
				t.Fatal(err)
			}
			r2, err := OpenRegistry(dir)
			if err != nil {
				t.Fatal(err)
			}
			e, _ := r2.Lookup("m")
			if e.seed.Load() == nil {
				t.Fatal("the entry file restored no maintainer state")
			}
			for x := int64(0); x < u; x++ {
				if got, want := e.H.PointEstimate(x), h.PointEstimate(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("point %d: %v after restart, %v built", x, got, want)
				}
			}
			for lo := int64(0); lo < u; lo += 37 {
				for _, hi := range []int64{lo, lo + 100, u - 1} {
					if got, want := e.H.RangeCount(lo, hi), h.RangeCount(lo, hi); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("range [%d, %d]: %v after restart, %v built", lo, hi, got, want)
					}
				}
			}
		})
	}
}

// TestConcurrentReadersDuringPublish is the registry-level race check:
// hammering Point/Range lookups while a writer republishes must be safe
// (run with -race) and every read must see a complete, consistent entry.
func TestConcurrentReadersDuringPublish(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Publish("hot", buildHist(t, 20000, 1<<12, 30, 1)); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				e, ok := r.Lookup("hot")
				if !ok {
					t.Error("entry vanished mid-republish")
					return
				}
				if _, err := e.Point(100); err != nil {
					t.Errorf("point: %v", err)
					return
				}
				if _, err := e.Range(0, 1<<11); err != nil {
					t.Errorf("range: %v", err)
					return
				}
			}
		}()
	}
	for seed := uint64(2); seed < 12; seed++ {
		if _, err := r.Publish("hot", buildHist(t, 5000, 1<<12, 30, seed)); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := r.Version(); got != 11 {
		t.Fatalf("version after 11 publishes = %d", got)
	}
}

// BenchmarkServeRange measures parallel range-selectivity throughput on a
// hot k=30 histogram through the full serving path (snapshot load, entry
// lookup, stats recording). Acceptance floor: >= 100k estimates/sec.
func BenchmarkServeRange(b *testing.B) {
	r := NewRegistry()
	if _, err := r.Publish("hot", buildHist(b, 1<<18, 1<<16, 30, 1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			e, ok := r.Lookup("hot")
			if !ok {
				b.Error("entry missing")
				return
			}
			lo := (i * 7919) % (1 << 15)
			if _, err := e.Range(lo, lo+1024); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "est/s")
}

// BenchmarkServePoint is the companion point-query throughput benchmark.
func BenchmarkServePoint(b *testing.B) {
	r := NewRegistry()
	if _, err := r.Publish("hot", buildHist(b, 1<<18, 1<<16, 30, 1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var i int64
		for pb.Next() {
			e, _ := r.Lookup("hot")
			if _, err := e.Point((i * 6151) % (1 << 16)); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "est/s")
}
