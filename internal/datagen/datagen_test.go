package datagen

import (
	"math"
	"sort"
	"testing"
	"time"

	"wavelethist/internal/hdfs"
)

func TestGenerateZipfBasics(t *testing.T) {
	fs := hdfs.NewFileSystem(4, 4096)
	spec := NewZipfSpec(10000, 1<<12, 1.1, 7)
	f, err := GenerateZipf(fs, "z", spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRecords != 10000 {
		t.Fatalf("records = %d", f.NumRecords)
	}
	freq := ExactFrequencies(f)
	var total float64
	maxKey := int64(-1)
	for x, c := range freq {
		if x < 0 || x >= 1<<12 {
			t.Fatalf("key %d out of domain", x)
		}
		if x > maxKey {
			maxKey = x
		}
		total += c
	}
	if total != 10000 {
		t.Fatalf("frequency mass = %v", total)
	}
	// Zipf(1.1) over 4096 keys: far fewer distinct keys than records.
	if len(freq) >= 5000 {
		t.Errorf("distinct keys = %d; expected heavy skew", len(freq))
	}
}

func TestGenerateZipfSkewOrdering(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	topShare := func(alpha float64) float64 {
		spec := NewZipfSpec(20000, 1<<14, alpha, 3)
		f, err := GenerateZipf(fs, "s", spec)
		if err != nil {
			t.Fatal(err)
		}
		freq := ExactFrequencies(f)
		counts := make([]float64, 0, len(freq))
		for _, c := range freq {
			counts = append(counts, c)
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
		var top float64
		for i := 0; i < 10 && i < len(counts); i++ {
			top += counts[i]
		}
		return top / 20000
	}
	s08, s14 := topShare(0.8), topShare(1.4)
	if s08 >= s14 {
		t.Errorf("top-10 share alpha=0.8 (%v) >= alpha=1.4 (%v)", s08, s14)
	}
}

func TestGenerateZipfDeterministic(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	spec := NewZipfSpec(5000, 1<<10, 1.1, 42)
	f1, _ := GenerateZipf(fs, "a", spec)
	f2, _ := GenerateZipf(fs, "b", spec)
	fr1, fr2 := ExactFrequencies(f1), ExactFrequencies(f2)
	if len(fr1) != len(fr2) {
		t.Fatal("same seed produced different datasets")
	}
	for x, c := range fr1 {
		if fr2[x] != c {
			t.Fatalf("same seed differs at key %d", x)
		}
	}
}

func TestGenerateZipfPermutationScatters(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	spec := NewZipfSpec(30000, 1<<12, 1.1, 5)
	spec.PermuteKeys = false
	fNo, _ := GenerateZipf(fs, "no", spec)
	spec.PermuteKeys = true
	fYes, _ := GenerateZipf(fs, "yes", spec)
	// Without permutation, mass concentrates on the lowest keys.
	lowMass := func(f *hdfs.File) float64 {
		freq := ExactFrequencies(f)
		var low, total float64
		for x, c := range freq {
			if x < 64 {
				low += c
			}
			total += c
		}
		return low / total
	}
	if lowMass(fNo) < 0.5 {
		t.Errorf("unpermuted low-key mass = %v, expected concentration", lowMass(fNo))
	}
	if lowMass(fYes) > 0.3 {
		t.Errorf("permuted low-key mass = %v, expected scattering", lowMass(fYes))
	}
}

func TestGenerateZipfValidation(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	bad := []ZipfSpec{
		{N: 0, U: 16, Alpha: 1, RecordSize: 4},
		{N: 10, U: 15, Alpha: 1, RecordSize: 4},
		{N: 10, U: 16, Alpha: 0, RecordSize: 4},
		{N: 10, U: 16, Alpha: 1, RecordSize: 2},
	}
	for i, s := range bad {
		if _, err := GenerateZipf(fs, "bad", s); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

// TestNonFiniteAlphaRefused: a NaN or infinite skew is an error from
// every Zipf entry point, returned at once — the sampler would never
// accept a draw, so generation would not return.
func TestNonFiniteAlphaRefused(t *testing.T) {
	for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := NewZipfSpec(10, 16, alpha, 1)
		errs := make(chan [3]error, 1)
		go func() {
			fs := hdfs.NewFileSystem(2, 1<<20)
			_, errZipf := GenerateZipf(fs, "z", spec)
			_, errVar := GenerateZipfVar(fs, "v", spec, 8)
			_, errKeys := ZipfKeys(spec)
			errs <- [3]error{errZipf, errVar, errKeys}
		}()
		select {
		case got := <-errs:
			for i, err := range got {
				if err == nil {
					t.Errorf("alpha %v: entry point %d accepted it", alpha, i)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("alpha %v: generation still running after 5s", alpha)
		}
	}
}

func TestGenerateZipfRecordSize(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	spec := NewZipfSpec(100, 1<<10, 1.1, 1)
	spec.RecordSize = 64
	f, err := GenerateZipf(fs, "r", spec)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 6400 {
		t.Errorf("size = %d, want 6400", f.Size())
	}
}

func TestGenerateZipfVar(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	spec := NewZipfSpec(500, 1<<10, 1.1, 9)
	f, err := GenerateZipfVar(fs, "v", spec, 40)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRecords != 500 {
		t.Fatalf("records = %d", f.NumRecords)
	}
	freq := ExactFrequencies(f)
	var total float64
	for _, c := range freq {
		total += c
	}
	if total != 500 {
		t.Errorf("mass = %v", total)
	}
}

func TestDenseFrequencies(t *testing.T) {
	freq := map[int64]float64{0: 2, 5: 1, 100: 3}
	v := DenseFrequencies(freq, 8)
	if v[0] != 2 || v[5] != 1 {
		t.Errorf("dense = %v", v)
	}
	// Out-of-range keys are dropped, not panicking.
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum != 3 {
		t.Errorf("in-domain mass = %v, want 3", sum)
	}
}

func TestWorldCupGenerator(t *testing.T) {
	fs := hdfs.NewFileSystem(4, 1<<20)
	spec := NewWorldCupSpec(50000, 11)
	f, err := GenerateWorldCup(fs, "wc", spec)
	if err != nil {
		t.Fatal(err)
	}
	freq := ExactFrequencies(f)
	u := spec.U()
	var total float64
	for x, c := range freq {
		if x < 0 || x >= u {
			t.Fatalf("key %d out of domain %d", x, u)
		}
		total += c
	}
	if total != 50000 {
		t.Fatalf("mass = %v", total)
	}
	// Skewed: distinct pairs well below record count but substantial.
	if len(freq) < 1000 || len(freq) > 45000 {
		t.Errorf("distinct clientobject pairs = %d; unexpected shape", len(freq))
	}
	// Heavy hitters exist (crawler-like clients on hot objects).
	var maxC float64
	for _, c := range freq {
		if c > maxC {
			maxC = c
		}
	}
	if maxC < 20 {
		t.Errorf("max pair frequency = %v; expected heavy hitters", maxC)
	}
}

func TestWorldCupSkewResemblesZipf(t *testing.T) {
	// The paper observes Zipf(1.1) data approximates WorldCup well: check
	// the rank-frequency curve is roughly linear in log-log (skewness),
	// i.e. top-1% of keys carries a large fraction of mass.
	fs := hdfs.NewFileSystem(4, 1<<20)
	f, err := GenerateWorldCup(fs, "wc2", NewWorldCupSpec(100000, 3))
	if err != nil {
		t.Fatal(err)
	}
	freq := ExactFrequencies(f)
	counts := make([]float64, 0, len(freq))
	var total float64
	for _, c := range freq {
		counts = append(counts, c)
		total += c
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(counts)))
	onePct := len(counts) / 100
	if onePct < 1 {
		onePct = 1
	}
	var topMass float64
	for i := 0; i < onePct; i++ {
		topMass += counts[i]
	}
	share := topMass / total
	if share < 0.15 {
		t.Errorf("top-1%% share = %v; expected skewed access pattern", share)
	}
	if math.IsNaN(share) {
		t.Fatal("NaN share")
	}
}

func TestWorldCupValidation(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	if _, err := GenerateWorldCup(fs, "bad", WorldCupSpec{N: 0}); err == nil {
		t.Error("accepted zero records")
	}
	spec := WorldCupSpec{N: 10, ClientBits: 20, ObjectBits: 20, RecordSize: 4, Days: 1}
	if _, err := GenerateWorldCup(fs, "bad", spec); err == nil {
		t.Error("accepted 2^40 domain with 4-byte records")
	}
}

func TestWorldCupWideDomain(t *testing.T) {
	fs := hdfs.NewFileSystem(2, 1<<20)
	spec := WorldCupSpec{N: 1000, ClientBits: 18, ObjectBits: 16, Days: 10, RecordSize: 8, Seed: 1}
	f, err := GenerateWorldCup(fs, "wide", spec)
	if err != nil {
		t.Fatal(err)
	}
	for x := range ExactFrequencies(f) {
		if x < 0 || x >= spec.U() {
			t.Fatalf("key %d out of 2^34 domain", x)
		}
	}
}

// BenchmarkGenerateZipf: the benchmark's dataset shape, 2^22 records over
// u = 2^20 at α = 1.1, the generation every worker repeats to
// materialize its copy.
func BenchmarkGenerateZipf(b *testing.B) {
	const n = 1 << 22
	spec := NewZipfSpec(n, 1<<20, 1.1, 42)
	for i := 0; i < b.N; i++ {
		if _, err := GenerateZipf(hdfs.NewFileSystem(15, 64<<10), "z", spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrec/s")
}
