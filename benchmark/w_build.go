package main

import (
	"context"
	"math"
	"time"

	"wavelethist"
	"wavelethist/dist"
)

// buildCase is one of the two build workloads.
type buildCase struct {
	method  wavelethist.Method
	records int64
	chunk   int64
}

func buildCaseOf(workload string, sz sizes) buildCase {
	if workload == "build_exact" {
		return buildCase{wavelethist.HWTopk, sz.ExactRecords, sz.ExactChunk}
	}
	return buildCase{wavelethist.TwoLevelS, sz.SampledRecs, sz.SampledChunk}
}

// buildRig is what set-up leaves behind: the file in simulated HDFS and a
// warm 2-worker loopback fleet whose workers hold the materialized file.
type buildRig struct {
	ds    *wavelethist.Dataset
	coord *dist.Coordinator
	genS  float64
	// firstDistS is the wall time of set-up's untimed distributed build,
	// which pays worker materialization.
	firstDistS float64
}

// setupBuild generates the file, starts the fleet and runs one untimed
// pair, which materializes the file on both workers.
func setupBuild(c buildCase, sz sizes, seed uint64) (*buildRig, error) {
	t0 := time.Now()
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: c.records, Domain: sz.Domain, Alpha: 1.1, ChunkSize: c.chunk,
		Seed: fork(seed, purposeDataset).next(),
	})
	if err != nil {
		return nil, err
	}
	b := &buildRig{ds: ds, genS: time.Since(t0).Seconds()}
	b.coord, _ = dist.NewLoopbackCluster(2, 0, dist.Config{})
	opts := wavelethist.Options{K: sz.BuildK, Seed: seed}
	if _, err := wavelethist.Build(ds, c.method, opts); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, err = wavelethist.BuildDistributed(context.Background(), ds, c.method, opts, b.coord); err != nil {
		return nil, err
	}
	b.firstDistS = time.Since(t1).Seconds()
	return b, nil
}

// sameCoefficients reports whether two histograms retain the same
// coefficients: same indexes in the same order and, with exactBits, the
// same values bit for bit; otherwise values may differ in the last digits,
// which is what two exact methods summing in different orders produce.
func sameCoefficients(a, b *wavelethist.Histogram, exactBits bool) bool {
	ca, cb := a.Coefficients(), b.Coefficients()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i].Index != cb[i].Index {
			return false
		}
		if exactBits {
			if !sameBits(ca[i].Value, cb[i].Value) {
				return false
			}
		} else if math.Abs(ca[i].Value-cb[i].Value) > 1e-9*math.Max(1, math.Abs(ca[i].Value)) {
			return false
		}
	}
	return true
}

// loopBuild is the build_exact and build_sampled workload: timed pairs of
// {Build, BuildDistributed} on one persistent fleet. Options.Seed changes
// per pair: it is part of the workers' partial-cache key, so every
// distributed build recomputes (CachedSplits must be 0) while the workers
// keep the materialized file.
func loopBuild(rc *runCtx, rig *rig, seconds float64, rec *recorder) (*outcome, error) {
	c := buildCaseOf(rc.workload, rc.sz)
	b := rig.build
	var out outcome

	acc := newAccuracy(b.ds.ExactFrequencies(), rc.sz.Domain, rc.sz.BuildK)
	var reference *wavelethist.Histogram // Send-V, the exact baseline
	if c.method.Exact() {
		res, err := wavelethist.Build(b.ds, wavelethist.SendV, wavelethist.Options{K: rc.sz.BuildK, Seed: rc.seed})
		if err != nil {
			return nil, err
		}
		reference = res.Histogram
	}

	var (
		lat        [2][]int64
		comm, wire []float64
		hists      []*wavelethist.Histogram
	)
	mark := markProc()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 1; i <= rc.sz.MinPairs || time.Now().Before(deadline); i++ {
		opts := wavelethist.Options{K: rc.sz.BuildK, Seed: rc.seed + uint64(i)}
		root := rec.begin("pair", 0, i)
		sp := rec.begin("wavelethist.Build", root, i)
		t0 := time.Now()
		sim, err := wavelethist.Build(b.ds, c.method, opts)
		t1 := time.Now()
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("wavelethist.BuildDistributed", root, i)
		dst, err := wavelethist.BuildDistributed(context.Background(), b.ds, c.method, opts, b.coord)
		t2 := time.Now()
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return nil, err
		}
		lat[0] = append(lat[0], int64(t1.Sub(t0)))
		lat[1] = append(lat[1], int64(t2.Sub(t1)))

		out.attempted += 2
		switch {
		case !sameCoefficients(sim.Histogram, dst.Histogram, true):
			out.fail(2, "pair %d: distributed result differs from simulated", i)
		case dst.CachedSplits != 0:
			out.fail(1, "pair %d: %d splits came from the partial cache", i, dst.CachedSplits)
		case sim.ModelCommBytes != dst.ModelCommBytes:
			out.fail(1, "pair %d: modelled communication differs (%d vs %d)", i, sim.ModelCommBytes, dst.ModelCommBytes)
		case reference != nil && !sameCoefficients(sim.Histogram, reference, false):
			out.fail(2, "pair %d: H-WTopk coefficients differ from Send-V", i)
		}
		// comm_bytes and sse_ratio use the pairs every run completes, so
		// they depend on the seed alone, not on how fast this run was.
		if i <= rc.sz.MinPairs {
			comm = append(comm, float64(sim.ModelCommBytes))
			hists = append(hists, sim.Histogram)
		}
		wire = append(wire, float64(dst.WireBytes))
	}

	out.proc = mark.since(out.attempted)

	var sse []float64
	for _, h := range hists {
		sse = append(sse, acc.ratio(h))
	}
	for l := range lat {
		// A build is its own slice: its rate is the inverse of its time.
		rates, p50s := make([]float64, len(lat[l])), make([]float64, len(lat[l]))
		for i, d := range lat[l] {
			rates[i], p50s[i] = 1e9/float64(d), float64(d)/1e3
		}
		out.lanes[l] = newLaneOut(rates, p50s, summarize(lat[l], 1e3))
	}
	out.comm, out.sse = median(comm), median(sse)
	out.note("dist.wire_bytes", metricValue{Value: median(wire), Unit: "B", Samples: len(wire)})
	out.note("splits", metricValue{Value: float64(b.ds.NumSplits(0)), Unit: "count"})
	out.note("sse_ratio_worst", metricValue{Value: maxOf(sse), Unit: "ratio", Samples: len(sse)})
	return &out, nil
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
