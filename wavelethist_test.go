package wavelethist

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"wavelethist/dist"
	"wavelethist/internal/hdfs"
)

func zipfDS(t testing.TB, n, u int64) *Dataset {
	t.Helper()
	ds, err := NewZipfDataset(ZipfOptions{
		Records: n, Domain: u, Alpha: 1.1, ChunkSize: 2048, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildAllMethods(t *testing.T) {
	ds := zipfDS(t, 50000, 1<<10)
	exact := ds.ExactFrequencies()
	var energy float64
	for _, c := range exact {
		energy += c * c
	}
	for _, m := range Methods() {
		res, err := Build(ds, m, Options{K: 20, Epsilon: 0.005, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Histogram.K() == 0 {
			t.Fatalf("%s: empty histogram", m)
		}
		if res.CommBytes <= 0 {
			t.Errorf("%s: no communication recorded", m)
		}
		if res.SimulatedSeconds() <= 0 {
			t.Errorf("%s: no simulated time", m)
		}
		sse := res.Histogram.SSE(exact)
		if sse >= energy {
			t.Errorf("%s: SSE %v >= energy %v", m, sse, energy)
		}
		wantRounds := 1
		if m == HWTopk {
			wantRounds = 3
		}
		if res.Rounds != wantRounds {
			t.Errorf("%s: rounds = %d, want %d", m, res.Rounds, wantRounds)
		}
	}
}

func TestExactMethodsAgree(t *testing.T) {
	ds := zipfDS(t, 30000, 1<<10)
	opts := Options{K: 15, Seed: 5}
	var ref []Coefficient
	for _, m := range []Method{SendV, SendCoef, HWTopk} {
		if !m.Exact() {
			t.Fatalf("%s should be exact", m)
		}
		res, err := Build(ds, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		cs := res.Histogram.Coefficients()
		if ref == nil {
			ref = cs
			continue
		}
		if len(cs) != len(ref) {
			t.Fatalf("%s: %d coefficients, ref %d", m, len(cs), len(ref))
		}
		for i := range cs {
			if math.Abs(math.Abs(cs[i].Value)-math.Abs(ref[i].Value)) > 1e-9 {
				t.Errorf("%s: coefficient %d differs from Send-V", m, i)
			}
		}
	}
	if TwoLevelS.Exact() {
		t.Error("TwoLevel-S claims to be exact")
	}
}

func TestRangeCountAccuracy(t *testing.T) {
	ds := zipfDS(t, 100000, 1<<12)
	exact := ds.ExactFrequencies()
	res, err := Build(ds, HWTopk, Options{K: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wide ranges should be estimated within a few percent of truth.
	for _, r := range [][2]int64{{0, 1<<12 - 1}, {0, 2047}, {1024, 3071}} {
		var truth float64
		for x, c := range exact {
			if x >= r[0] && x <= r[1] {
				truth += c
			}
		}
		got := res.Histogram.RangeCount(r[0], r[1])
		// A k-term histogram is lossy; wide ranges on permuted Zipf data
		// should still land within ~30% (the paper's use case is coarse
		// selectivity estimation).
		if truth > 1000 && math.Abs(got-truth) > 0.3*truth {
			t.Errorf("range [%d,%d]: estimate %v, truth %v", r[0], r[1], got, truth)
		}
	}
	// Full range equals n exactly for an exact method over full k? Not
	// necessarily (k terms), but must be close.
	full := res.Histogram.RangeCount(0, ds.Domain()-1)
	if math.Abs(full-float64(ds.NumRecords())) > 0.05*float64(ds.NumRecords()) {
		t.Errorf("full-range count %v, n = %d", full, ds.NumRecords())
	}
}

func TestPointEstimateHeavyKey(t *testing.T) {
	ds := zipfDS(t, 100000, 1<<12)
	exact := ds.ExactFrequencies()
	var heavy int64
	var heavyC float64
	for x, c := range exact {
		if c > heavyC {
			heavy, heavyC = x, c
		}
	}
	res, err := Build(ds, HWTopk, Options{K: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Histogram.PointEstimate(heavy)
	if math.Abs(got-heavyC) > 0.3*heavyC {
		t.Errorf("heaviest key estimate %v, truth %v", got, heavyC)
	}
}

func TestDatasetAccessors(t *testing.T) {
	ds := zipfDS(t, 1000, 1<<8)
	if ds.SizeBytes() != 4000 {
		t.Errorf("SizeBytes = %d, want 4000", ds.SizeBytes())
	}
	if got := ds.NumSplits(400); got != 10 {
		t.Errorf("NumSplits(400) = %d, want 10", got)
	}
	if ds.NumSplits(0) < 1 {
		t.Error("NumSplits(0) < 1")
	}
}

func TestDatasetFromKeys(t *testing.T) {
	keys := []int64{1, 1, 1, 5, 9, 9, 100}
	ds, err := NewDatasetFromKeys(keys, KeysOptions{Domain: 128, ChunkSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumRecords() != 7 {
		t.Fatalf("records = %d", ds.NumRecords())
	}
	exact := ds.ExactFrequencies()
	if exact[1] != 3 || exact[9] != 2 || exact[100] != 1 {
		t.Errorf("frequencies = %v", exact)
	}
	// With k large enough to retain every non-zero coefficient (4 keys ×
	// 8 levels), reconstruction is exact.
	res, err := Build(ds, SendV, Options{K: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Histogram.PointEstimate(1); math.Abs(got-3) > 1e-6 {
		t.Errorf("PointEstimate(1) = %v, want 3", got)
	}
}

func TestDatasetFromKeysValidation(t *testing.T) {
	if _, err := NewDatasetFromKeys(nil, KeysOptions{Domain: 16}); err == nil {
		t.Error("accepted empty keys")
	}
	if _, err := NewDatasetFromKeys([]int64{1}, KeysOptions{Domain: 15}); err == nil {
		t.Error("accepted non-power-of-two domain")
	}
	if _, err := NewDatasetFromKeys([]int64{99}, KeysOptions{Domain: 16}); err == nil {
		t.Error("accepted out-of-domain key")
	}
}

func TestWorldCupDataset(t *testing.T) {
	ds, err := NewWorldCupDataset(WorldCupOptions{Records: 20000, Seed: 3, ChunkSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Domain() != 1<<20 {
		t.Errorf("domain = %d, want 2^20", ds.Domain())
	}
	res, err := Build(ds, TwoLevelS, Options{K: 20, Epsilon: 0.01, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram.K() == 0 {
		t.Error("empty histogram on WorldCup data")
	}
}

// Every constructor's file is the one its spec materializes — the copy a
// distributed build's workers scan — and its spec fingerprints like the
// bare recipe the options spell, so workers' dataset caches agree.
func TestDatasetIsSpecMaterialized(t *testing.T) {
	keys := []int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}
	cases := []struct {
		build func() (*Dataset, error)
		bare  dist.DatasetSpec
	}{
		{func() (*Dataset, error) {
			return NewZipfDataset(ZipfOptions{Records: 3000, Domain: 1 << 10, ChunkSize: 1024, Seed: 5})
		}, dist.DatasetSpec{Kind: "zipf", Records: 3000, Domain: 1 << 10, ChunkSize: 1024, Seed: 5}},
		{func() (*Dataset, error) {
			return NewWorldCupDataset(WorldCupOptions{Records: 3000, ClientBits: 16, ObjectBits: 17, ChunkSize: 1024, Seed: 5})
		}, dist.DatasetSpec{Kind: "worldcup", Records: 3000, ClientBits: 16, ObjectBits: 17, ChunkSize: 1024, Seed: 5}},
		{func() (*Dataset, error) {
			return NewDatasetFromKeys(keys, KeysOptions{Domain: 16, ChunkSize: 16, Nodes: 3})
		}, dist.DatasetSpec{Kind: "keys", Domain: 16, ChunkSize: 16, Nodes: 3, Keys: keys}},
	}
	for _, c := range cases {
		ds, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		kind := c.bare.Kind
		if got, want := ds.Spec().Fingerprint(), c.bare.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %s, bare recipe's %s", kind, got, want)
		}
		file, u, err := ds.Spec().Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if u != ds.Domain() || file.RecordSize != ds.file.RecordSize || file.NumRecords != ds.NumRecords() {
			t.Errorf("%s: materialized u=%d rs=%d n=%d, dataset u=%d rs=%d n=%d", kind,
				u, file.RecordSize, file.NumRecords, ds.Domain(), ds.file.RecordSize, ds.NumRecords())
		}
		if !bytes.Equal(fileBytes(t, file), fileBytes(t, ds.file)) {
			t.Errorf("%s: file bytes differ", kind)
		}
		if !reflect.DeepEqual(file.Chunks(), ds.file.Chunks()) {
			t.Errorf("%s: chunks %v, dataset %v", kind, file.Chunks(), ds.file.Chunks())
		}
		want, got := file.Splits(0), ds.file.Splits(0)
		if len(got) != len(want) || len(got) < 2 {
			t.Fatalf("%s: %d splits, materialized %d (want several)", kind, len(got), len(want))
		}
		for i := range got {
			got[i].File, want[i].File = nil, nil
			if got[i] != want[i] {
				t.Errorf("%s: split %d = %+v, materialized %+v", kind, i, got[i], want[i])
			}
		}
	}
}

func fileBytes(t *testing.T, f *hdfs.File) []byte {
	t.Helper()
	b := make([]byte, f.Size())
	if _, err := f.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOptionsPassthrough(t *testing.T) {
	ds := zipfDS(t, 20000, 1<<10)
	// SketchBytes controls Send-Sketch's shipped entries.
	small, err := Build(ds, SendSketch, Options{K: 10, Seed: 1, SketchBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Build(ds, SendSketch, Options{K: 10, Seed: 1, SketchBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if small.CommBytes >= big.CommBytes {
		t.Errorf("smaller sketch budget should ship less: %d vs %d",
			small.CommBytes, big.CommBytes)
	}
	// DisableCombine inflates Basic-S's pair count.
	on, err := Build(ds, BasicS, Options{K: 10, Epsilon: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Build(ds, BasicS, Options{K: 10, Epsilon: 0.01, Seed: 1, DisableCombine: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.CommBytes >= off.CommBytes {
		t.Errorf("combine should reduce Basic-S comm: %d vs %d", on.CommBytes, off.CommBytes)
	}
	// SplitSize controls m.
	coarse, err := Build(ds, TwoLevelS, Options{K: 10, Epsilon: 0.01, Seed: 1, SplitSize: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Build(ds, TwoLevelS, Options{K: 10, Epsilon: 0.01, Seed: 1, SplitSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if fine.CommBytes <= coarse.CommBytes {
		t.Errorf("more splits should ship more: %d vs %d", fine.CommBytes, coarse.CommBytes)
	}
}

func TestSimulatedTimeBandwidth(t *testing.T) {
	ds := zipfDS(t, 50000, 1<<12)
	res, err := Build(ds, SendV, Options{K: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	slow := res.SimulatedSecondsAt(0.1)
	fast := res.SimulatedSecondsAt(1.0)
	if slow <= fast {
		t.Errorf("10%% bandwidth (%v) should be slower than 100%% (%v)", slow, fast)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, SendV, Options{}); err == nil {
		t.Error("accepted nil dataset")
	}
	ds := zipfDS(t, 100, 1<<6)
	if _, err := Build(ds, Method("nope"), Options{}); err == nil {
		t.Error("accepted unknown method")
	}
}

func TestBuild2D(t *testing.T) {
	const side = 16
	xs := make([]int64, 0, 4000)
	ys := make([]int64, 0, 4000)
	for i := 0; i < 4000; i++ {
		xs = append(xs, int64(i%side))
		ys = append(ys, int64((i*7)%side))
	}
	ds, err := NewDataset2DFromPairs(xs, ys, side, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Build2D(ds, SendV2D, Options{K: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	hw, err := Build2D(ds, HWTopk2D, Options{K: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ec, hc := exact.Histogram.rep.Coefs, hw.Histogram.rep.Coefs
	if len(ec) != len(hc) {
		t.Fatalf("coefficient counts differ: %d vs %d", len(ec), len(hc))
	}
	for i := range ec {
		if math.Abs(math.Abs(ec[i].Value)-math.Abs(hc[i].Value)) > 1e-9 {
			t.Errorf("2D coefficient %d differs between exact methods", i)
		}
	}
	if _, err := Build2D(ds, TwoLevelS2D, Options{K: 10, Epsilon: 0.02, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build2D(ds, Method2D("bad"), Options{}); err == nil {
		t.Error("accepted unknown 2D method")
	}
}

func TestDataset2DValidation(t *testing.T) {
	if _, err := NewDataset2DFromPairs([]int64{1}, []int64{1, 2}, 16, 0, 1); err == nil {
		t.Error("accepted mismatched slices")
	}
	if _, err := NewDataset2DFromPairs([]int64{1}, []int64{1}, 15, 0, 1); err == nil {
		t.Error("accepted non-power-of-two side")
	}
	if _, err := NewDataset2DFromPairs([]int64{99}, []int64{1}, 16, 0, 1); err == nil {
		t.Error("accepted out-of-grid pair")
	}
}
