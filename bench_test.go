// Benchmark harness: one benchmark per paper figure (5-19), each running
// the corresponding exper driver and reporting the headline series values
// as custom metrics, plus method-level build benchmarks and the ablation
// benchmarks called out in DESIGN.md.
//
// Figures use the Quick configuration so `go test -bench=.` finishes in
// minutes; `cmd/experiments` runs the full scaled configuration.
package wavelethist_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"testing"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/internal/core"
	"wavelethist/internal/datagen"
	"wavelethist/internal/exper"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
	"wavelethist/internal/zipf"
)

// benchFigure runs one experiment driver per iteration.
func benchFigure(b *testing.B, d exper.Driver) {
	cfg := exper.Quick()
	var figs []*exper.Figure
	for i := 0; i < b.N; i++ {
		var err error
		figs, err = d(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Surface the last run's headline numbers (first row) as metrics.
	if len(figs) > 0 {
		f := figs[0]
		for j, col := range f.Columns {
			if j < len(f.Cells[0]) {
				b.ReportMetric(f.Cells[0][j], sanitizeMetric(col+"_"+f.Unit))
			}
		}
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case ' ', '(', ')':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

func BenchmarkFig5_VaryK(b *testing.B)            { benchFigure(b, exper.Fig5) }
func BenchmarkFig6_SSEVaryK(b *testing.B)         { benchFigure(b, exper.Fig6) }
func BenchmarkFig7_SSEVaryEps(b *testing.B)       { benchFigure(b, exper.Fig7) }
func BenchmarkFig8_VaryEps(b *testing.B)          { benchFigure(b, exper.Fig8) }
func BenchmarkFig9_CostVsSSE(b *testing.B)        { benchFigure(b, exper.Fig9) }
func BenchmarkFig10_VaryN(b *testing.B)           { benchFigure(b, exper.Fig10) }
func BenchmarkFig11_VaryRecordSize(b *testing.B)  { benchFigure(b, exper.Fig11) }
func BenchmarkFig12_VaryU(b *testing.B)           { benchFigure(b, exper.Fig12) }
func BenchmarkFig13_VarySplitSize(b *testing.B)   { benchFigure(b, exper.Fig13) }
func BenchmarkFig14_VaryAlpha(b *testing.B)       { benchFigure(b, exper.Fig14) }
func BenchmarkFig15_SSEVaryAlpha(b *testing.B)    { benchFigure(b, exper.Fig15) }
func BenchmarkFig16_VaryBandwidth(b *testing.B)   { benchFigure(b, exper.Fig16) }
func BenchmarkFig17_WorldCup(b *testing.B)        { benchFigure(b, exper.Fig17) }
func BenchmarkFig18_WorldCupSSE(b *testing.B)     { benchFigure(b, exper.Fig18) }
func BenchmarkFig19_WorldCupCostSSE(b *testing.B) { benchFigure(b, exper.Fig19) }

// BenchmarkMethod measures a single build per method on a shared dataset,
// reporting communication and simulated cluster time alongside ns/op.
func BenchmarkMethod(b *testing.B) {
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 17, Domain: 1 << 13, Alpha: 1.1, ChunkSize: 8 << 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range wavelethist.Methods() {
		b.Run(string(m), func(b *testing.B) {
			var res *wavelethist.Result
			for i := 0; i < b.N; i++ {
				res, err = wavelethist.Build(ds, m, wavelethist.Options{
					K: 30, Epsilon: 8e-3, Seed: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.CommBytes), "commBytes")
			b.ReportMetric(res.SimulatedSeconds(), "simSeconds")
		})
	}
}

// BenchmarkBuildPeakHeap reports each 1D method's peak live heap over one
// in-process build at build_exact's shape (n = 2^19 Zipf(1.1) records in
// 128 splits, u = 2^20, k = 30): the maximum of the runtime's
// /memory/classes/heap/objects:bytes, polled every 200µs, dataset
// included. It is the ruler for a change to what a round holds.
func BenchmarkBuildPeakHeap(b *testing.B) {
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 19, Domain: 1 << 20, Alpha: 1.1, ChunkSize: 16 << 10, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range wavelethist.Methods() {
		b.Run(string(m), func(b *testing.B) {
			var peak uint64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				stop := pollHeapPeak(200 * time.Microsecond)
				_, err := wavelethist.Build(ds, m, wavelethist.Options{K: 30, Seed: 7})
				peak = max(peak, stop())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
		})
	}
}

// pollHeapPeak samples the live heap every interval until the returned
// stop is called, which reports the largest sample.
func pollHeapPeak(interval time.Duration) (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		p := read()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				p = max(p, read())
			case <-done:
				peak <- max(p, read())
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// BenchmarkDistributedBuild measures distributed loopback builds on a
// 3-worker fleet, reporting the measured wire traffic of the
// coordinator↔worker RPCs alongside ns/op — the real-communication
// analogue of BenchmarkMethod's modeled commBytes.
func BenchmarkDistributedBuild(b *testing.B) {
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 17, Domain: 1 << 13, Alpha: 1.1, ChunkSize: 8 << 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	coord, _ := dist.NewLoopbackCluster(3, 2, dist.Config{})
	for _, m := range []wavelethist.Method{wavelethist.SendV, wavelethist.TwoLevelS, wavelethist.SendSketch} {
		b.Run(string(m), func(b *testing.B) {
			var res *wavelethist.Result
			for i := 0; i < b.N; i++ {
				res, err = wavelethist.BuildDistributed(context.Background(), ds, m, wavelethist.Options{
					K: 30, Epsilon: 8e-3, Seed: 2,
				}, coord)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.WireBytes), "wireBytes")
			b.ReportMetric(float64(res.ModelCommBytes), "modelCommBytes")
		})
	}
}

// --- Ablations (DESIGN.md Section 5) ---

// BenchmarkAblationSparseVsDense compares the O(u) dense transform against
// the O(|v| log u) sparse transform the mappers use (Appendix A). At
// u = 2^20 the dense pass is still time-competitive (it is a cache-friendly
// linear sweep) but allocates the full 8 MB domain per split — the sparse
// path allocates ~14x less here, and the gap scales linearly in u: at the
// paper's u = 2^29 a dense per-split transform would need 4 GB and O(u)
// time regardless of how few keys the split holds.
func BenchmarkAblationSparseVsDense(b *testing.B) {
	const u = 1 << 20
	rng := zipf.NewRNG(3)
	z := zipf.NewZipf(u, 1.1)
	freq := make(map[int64]float64)
	for i := 0; i < 16384; i++ { // one 64 KiB split's worth of records
		freq[z.Sample(rng)-1]++
	}
	b.Run("dense_O(u)", func(b *testing.B) {
		dense := make([]float64, u)
		for x, c := range freq {
			dense[x] = c
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = wavelet.Transform(dense)
		}
	})
	b.Run("streaming_O(logu)_mem", func(b *testing.B) {
		fb := wavelet.GetFreqBuffers()
		defer wavelet.PutFreqBuffers(fb)
		keys, counts := fb.Load(freq)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = wavelet.SparseTransformSorted(keys, counts, u)
		}
	})
}

// BenchmarkAblationSecondLevel isolates the paper's key approximate-side
// idea: second-level importance sampling (TwoLevel-S) vs threshold
// dropping (Improved-S) vs plain combine (Basic-S). commBytes is the
// metric that matters — the paper's Theorem 3 O(√m/ε) vs O(m/ε) vs
// O(1/ε²).
func BenchmarkAblationSecondLevel(b *testing.B) {
	// Splits must be large enough that Improved-S's threshold ε·t_j
	// exceeds 1 (t_j = p·n_j sampled records per split), otherwise it
	// degenerates into Basic-S — the regime matters, as in the paper.
	fs := hdfs.NewFileSystem(15, 32<<10) // m = 128 splits of 8192 records
	f, err := datagen.GenerateZipf(fs, "d", datagen.NewZipfSpec(1<<20, 1<<13, 1.1, 5))
	if err != nil {
		b.Fatal(err)
	}
	p := core.Params{U: 1 << 13, K: 30, Epsilon: 2e-3, Seed: 6, CombineEnabled: true}.Defaults()
	for _, alg := range []core.Algorithm{core.NewBasicS(), core.NewImprovedS(), core.NewTwoLevelS()} {
		b.Run(alg.Name(), func(b *testing.B) {
			var out *core.Output
			for i := 0; i < b.N; i++ {
				out, err = alg.Run(context.Background(), f, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(out.Metrics.TotalCommBytes()), "commBytes")
			b.ReportMetric(float64(out.Metrics.PairsShuffled), "pairs")
		})
	}
}

// BenchmarkAblationCombiner reproduces the paper's remark that Basic-S's
// combine effectiveness is distribution-dependent: on skewed data it
// collapses many (x, 1) pairs; on near-uniform data it barely helps.
func BenchmarkAblationCombiner(b *testing.B) {
	for _, sc := range []struct {
		name  string
		alpha float64
	}{{"skewed_a1.4", 1.4}, {"uniform_a0.3", 0.3}} {
		fs := hdfs.NewFileSystem(15, 4<<10)
		f, err := datagen.GenerateZipf(fs, "d", datagen.NewZipfSpec(1<<17, 1<<13, sc.alpha, 7))
		if err != nil {
			b.Fatal(err)
		}
		for _, combine := range []bool{true, false} {
			name := fmt.Sprintf("%s/combine=%v", sc.name, combine)
			b.Run(name, func(b *testing.B) {
				p := core.Params{U: 1 << 13, K: 30, Epsilon: 5e-3, Seed: 8,
					CombineEnabled: combine}.Defaults()
				var out *core.Output
				for i := 0; i < b.N; i++ {
					out, err = core.NewBasicS().Run(context.Background(), f, p)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(out.Metrics.PairsShuffled), "pairs")
			})
		}
	}
}

// BenchmarkAblationGCSDegree compares GCS search degrees (the paper picks
// GCS-8 for "the overall best per-item update cost").
func BenchmarkAblationGCSDegree(b *testing.B) {
	const u = 1 << 16
	rng := zipf.NewRNG(9)
	z := zipf.NewZipf(u, 1.1)
	freq := make(map[int64]float64)
	for i := 0; i < 8192; i++ {
		freq[z.Sample(rng)-1]++
	}
	fs := hdfs.NewFileSystem(15, 8<<10)
	f, err := datagen.GenerateZipf(fs, "d", datagen.NewZipfSpec(1<<16, u, 1.1, 10))
	if err != nil {
		b.Fatal(err)
	}
	for _, degree := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("GCS-%d", degree), func(b *testing.B) {
			p := core.Params{U: u, K: 30, Epsilon: 5e-3, Seed: 11,
				SketchDegree: degree, SketchBytes: 64 << 10}.Defaults()
			for i := 0; i < b.N; i++ {
				if _, err := core.NewSendSketch().Run(context.Background(), f, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSplitCount shows the communication scaling in m that
// separates TwoLevel-S (√m) from Improved-S (m): same data, varying split
// size.
func BenchmarkAblationSplitCount(b *testing.B) {
	fs := hdfs.NewFileSystem(15, 1<<10)
	f, err := datagen.GenerateZipf(fs, "d", datagen.NewZipfSpec(1<<18, 1<<13, 1.1, 12))
	if err != nil {
		b.Fatal(err)
	}
	for _, splitKB := range []int64{1, 4, 16} {
		m := f.Size() / (splitKB << 10)
		for _, alg := range []core.Algorithm{core.NewImprovedS(), core.NewTwoLevelS()} {
			b.Run(fmt.Sprintf("m=%d/%s", m, alg.Name()), func(b *testing.B) {
				p := core.Params{U: 1 << 13, K: 30, Epsilon: 5e-3, Seed: 13,
					SplitSize: splitKB << 10, CombineEnabled: true}.Defaults()
				var out *core.Output
				for i := 0; i < b.N; i++ {
					out, err = alg.Run(context.Background(), f, p)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(out.Metrics.TotalCommBytes()), "commBytes")
			})
		}
	}
}
