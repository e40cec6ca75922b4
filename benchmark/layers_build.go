package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/internal/core"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/topk"
	"wavelethist/internal/wavelet"
	"wavelethist/internal/zipf"
)

// layersBuild takes a build workload apart: the input layer (hdfs), the
// per-split transform (wavelet), the protocol (core, driven by hand
// through the seams the coordinator and workers use), the wire codec and
// the coordinator (dist). build_exact exercises the scan and the three
// H-WTopk rounds; build_sampled the random reader and TwoLevel-S.
func layersBuild(rc *runCtx, r *rig, rec *recorder, lv *layerValues) error {
	c := buildCaseOf(rc.workload, rc.sz)
	b := r.build
	ctx := context.Background()

	// The same file the builds read, as the packages below the public API
	// see it: the recipe regenerates it byte for byte.
	file, _, err := b.ds.Spec().Materialize()
	if err != nil {
		return err
	}
	p := core.Params{U: rc.sz.Domain, K: rc.sz.BuildK, Seed: rc.seed}.Defaults()
	splits := file.Splits(0)
	ids := make([]int, len(splits))
	for i := range ids {
		ids[i] = i
	}

	var out *core.Output
	if c.method == wavelethist.HWTopk {
		layersScan(rec, lv, splits, c.records)
		if err := layersTransform(rc, rec, lv, splits); err != nil {
			return err
		}
		if out, err = layersHWTopk(ctx, rec, lv, file, p, ids); err != nil {
			return err
		}
		if err := layersOtherMethods(rc, lv, b.ds); err != nil {
			return err
		}
	} else {
		layersSample(rc, rec, lv, file, splits, p)
		if out, err = layersTwoLevel(ctx, rec, lv, file, p, ids); err != nil {
			return err
		}
	}
	lv.set("mapred.shuffle_bytes", float64(out.Metrics.ShuffleBytes))
	lv.set("mapred.broadcast_bytes", float64(out.Metrics.BroadcastBytes))
	lv.set("mapred.map_records_read", float64(out.Metrics.MapRecordsRead))

	// The hand-driven result must be the public API's result.
	ref, err := wavelethist.Build(b.ds, c.method, wavelethist.Options{K: rc.sz.BuildK, Seed: rc.seed})
	if err != nil {
		return err
	}
	lv.set("cluster.simulated_s", ref.SimulatedSeconds())
	if !sameRep(out.Rep, ref.Histogram) || out.Metrics.TotalCommBytes() != ref.ModelCommBytes {
		lv.problem("hand-driven %s differs from wavelethist.Build", c.method)
	}
	return layersDist(ctx, rc, lv, c, b)
}

// sameRep compares a core representation with a public histogram bit for
// bit.
func sameRep(rep *wavelet.Representation, h *wavelethist.Histogram) bool {
	cs := append([]wavelet.Coef(nil), rep.Coefs...)
	wavelet.SortCoefsByMagnitude(cs)
	want := h.Coefficients()
	if len(cs) != len(want) {
		return false
	}
	for i := range cs {
		if cs[i].Index != want[i].Index || !sameBits(cs[i].Value, want[i].Value) {
			return false
		}
	}
	return true
}

// layersScan times a sequential read of every split.
func layersScan(rec *recorder, lv *layerValues, splits []hdfs.Split, records int64) {
	ns := sampleNs(rec, "hdfs.SequentialReader", 5, func(int) {
		for _, s := range splits {
			rd := hdfs.NewSequentialReader(s)
			for _, ok := rd.Next(); ok; _, ok = rd.Next() {
			}
		}
	})
	lv.set("hdfs.scan_mrec_per_s", float64(records)/(ns/1e9)/1e6)
}

// layersSample times the random reader at TwoLevel-S's per-split sample
// counts (p*n_j records of split j, p = 1/(eps^2 n)).
func layersSample(rc *runCtx, rec *recorder, lv *layerValues, file *hdfs.File, splits []hdfs.Split, p core.Params) {
	prob := math.Min(1, 1/(p.Epsilon*p.Epsilon*float64(file.NumRecords)))
	var read int64
	ns := sampleNs(rec, "hdfs.RandomReader", 5, func(int) {
		read = 0
		for j, s := range splits {
			rd := hdfs.NewRandomReader(s, int64(prob*float64(s.NumRecords())), zipf.NewRNG(rc.seed+uint64(j)))
			for _, ok := rd.Next(); ok; _, ok = rd.Next() {
				read++
			}
		}
	})
	lv.set("hdfs.sample_mrec_per_s", float64(read)/(ns/1e9)/1e6)
}

// transformReps is how often each split is transformed: a transform is a
// few milliseconds, so two passes over the default 128 splits are a
// steady median in about a second.
const transformReps = 2

// layersTransform times the per-split sparse transform and top-k
// selection on the splits' real frequencies, and the reference two-sided
// TPUT over the first splits' coefficients.
func layersTransform(rc *runCtx, rec *recorder, lv *layerValues, splits []hdfs.Split) error {
	freqs := make([]map[int64]float64, len(splits))
	for j, s := range splits {
		freqs[j] = map[int64]float64{}
		rd := hdfs.NewSequentialReader(s)
		for r, ok := rd.Next(); ok; r, ok = rd.Next() {
			freqs[j][r.Key]++
		}
	}
	buf := wavelet.GetFreqBuffers()
	defer wavelet.PutFreqBuffers(buf)
	coefs := make([][]wavelet.Coef, len(splits))
	ns := sampleNs(rec, "wavelet.SparseTransformSorted", transformReps*len(splits), func(i int) {
		j := i % len(splits)
		keys, counts := buf.Load(freqs[j])
		coefs[j] = wavelet.SparseTransformSorted(keys, counts, rc.sz.Domain)
	})
	lv.set("wavelet.sparse_transform_us", ns/1e3)

	scratch := make([]wavelet.Coef, 0, 1<<16)
	ns = sampleNs(rec, "wavelet.SelectTopK", transformReps*len(splits), func(i int) {
		scratch = append(scratch[:0], coefs[i%len(splits)]...) // SelectTopK reorders its input
		wavelet.SelectTopK(scratch, rc.sz.BuildK)
	})
	lv.set("wavelet.select_topk_us", ns/1e3)

	// The reference protocol holds every node's scores in a map; 16 nodes
	// keep that to tens of MB.
	nodes := make([]topk.Scores, min(16, len(coefs)))
	for j := range nodes {
		nodes[j] = topk.Scores{}
		for _, c := range coefs[j] {
			nodes[j][c.Index] = c.Value
		}
	}
	var st topk.Stats
	ns = sampleNs(rec, "topk.TwoSided", 5, func(int) { _, st = topk.TwoSided(nodes, rc.sz.BuildK) })
	lv.set("topk.twosided_ms", ns/1e6)
	lv.set("topk.twosided_items", float64(st.TotalItems()))
	return nil
}

// handBuilds is how many builds are driven by hand; per-round times are
// medians over them.
const handBuilds = 3

// layersHWTopk drives H-WTopk through the seams the distributed runtime
// uses: the coordinator's RoundPlan and the workers' MapRoundSplits.
func layersHWTopk(ctx context.Context, rec *recorder, lv *layerValues, file *hdfs.File, p core.Params, ids []int) (*core.Output, error) {
	method := string(wavelethist.HWTopk)
	var (
		mapS, redMs [3][]float64
		out         *core.Output
		round1      []core.SplitPartial
	)
	for b := 0; b < handBuilds; b++ {
		root := rec.begin("core.hwtopk.build", 0, b+1)
		plan, err := core.NewRoundPlan(file, method, p)
		if err != nil {
			return nil, err
		}
		ws := core.NewWorkerState()
		for round := 1; round <= 3; round++ {
			bcast := plan.Broadcast(round)
			sp := rec.begin(fmt.Sprintf("core.hwtopk.map_r%d", round), root, b+1)
			t0 := time.Now()
			parts, _, err := core.MapRoundSplits(ctx, file, method, p, round, bcast, ids, ws)
			t1 := time.Now()
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			sp = rec.begin(fmt.Sprintf("core.hwtopk.reduce_r%d", round), root, b+1)
			err = plan.ReduceRound(ctx, round, parts)
			t2 := time.Now()
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			mapS[round-1] = append(mapS[round-1], t1.Sub(t0).Seconds())
			redMs[round-1] = append(redMs[round-1], t2.Sub(t1).Seconds()*1e3)
			if round == 1 {
				round1 = parts
			}
		}
		var err2 error
		if out, err2 = plan.Output(); err2 != nil {
			return nil, err2
		}
		rec.end(root)
		lv.set("core.hwtopk.candidates", float64(plan.Candidates()))
	}
	for i := 0; i < 3; i++ {
		lv.set(fmt.Sprintf("core.hwtopk.map_r%d_s", i+1), median(mapS[i]))
		lv.set(fmt.Sprintf("core.hwtopk.reduce_r%d_ms", i+1), median(redMs[i]))
		rcost := out.Metrics.RoundCosts[i]
		lv.set(fmt.Sprintf("core.hwtopk.comm_r%d_bytes", i+1), float64(rcost.ShuffleBytes+rcost.BroadcastBytes))
	}
	return out, layersPartials(rec, lv, round1)
}

// layersTwoLevel drives TwoLevel-S through MapSplits and MergePartials.
func layersTwoLevel(ctx context.Context, rec *recorder, lv *layerValues, file *hdfs.File, p core.Params, ids []int) (*core.Output, error) {
	method := string(wavelethist.TwoLevelS)
	var (
		mapS, redMs []float64
		out         *core.Output
		parts       []core.SplitPartial
	)
	for b := 0; b < handBuilds; b++ {
		root := rec.begin("core.twolevel.build", 0, b+1)
		sp := rec.begin("core.twolevel.map", root, b+1)
		t0 := time.Now()
		var err error
		parts, err = core.MapSplits(ctx, file, method, p, ids)
		t1 := time.Now()
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		sp = rec.begin("core.twolevel.reduce", root, b+1)
		out, err = core.MergePartials(ctx, file, method, p, parts)
		t2 := time.Now()
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return nil, err
		}
		mapS = append(mapS, t1.Sub(t0).Seconds())
		redMs = append(redMs, t2.Sub(t1).Seconds()*1e3)
	}
	lv.set("core.twolevel.map_s", median(mapS))
	lv.set("core.twolevel.reduce_ms", median(redMs))
	lv.set("core.twolevel.records_read", float64(out.Metrics.MapRecordsRead))
	return out, layersPartials(rec, lv, parts)
}

// layersPartials times the partial codec on one round's real partials.
func layersPartials(rec *recorder, lv *layerValues, parts []core.SplitPartial) error {
	var wire []byte
	ns := sampleNs(rec, "core.EncodePartials", 50, func(int) { wire = core.EncodePartials(parts) })
	lv.set("core.partials_encode_ms", ns/1e6)
	lv.set("core.partials_bytes", float64(len(wire)))
	var err error
	ns = sampleNs(rec, "core.DecodePartials", 50, func(int) {
		if _, derr := core.DecodePartials(wire); derr != nil {
			err = derr
		}
	})
	lv.set("core.partials_decode_ms", ns/1e6)
	return err
}

// layersOtherMethods runs one simulated build of each method that is not
// a headline workload, on the build_exact file: the paper-fidelity record
// (Send-V over H-WTopk communication is the paper's headline ratio).
func layersOtherMethods(rc *runCtx, lv *layerValues, ds *wavelethist.Dataset) error {
	for _, m := range []wavelethist.Method{wavelethist.SendV, wavelethist.SendCoef, wavelethist.BasicS, wavelethist.ImprovedS, wavelethist.SendSketch} {
		t0 := time.Now()
		res, err := wavelethist.Build(ds, m, wavelethist.Options{K: rc.sz.BuildK, Seed: rc.seed})
		if err != nil {
			return err
		}
		key := "core." + strings.ToLower(strings.ReplaceAll(string(m), "-", ""))
		lv.set(key+".build_s", time.Since(t0).Seconds())
		lv.set(key+".comm_bytes", float64(res.ModelCommBytes))
	}
	return nil
}

// layersDist reads the distributed runtime's own accounting: per-round
// RPC profile and the coordinator's span trace of steady builds, the
// partial cache on a repeated seed, worker materialization from set-up's
// first build, and the map RPC codec on a real frame.
func layersDist(ctx context.Context, rc *runCtx, lv *layerValues, c buildCase, b *buildRig) error {
	var (
		steady []float64
		last   *wavelethist.Result
		opts   wavelethist.Options
	)
	for i := 1; i <= handBuilds; i++ {
		opts = wavelethist.Options{K: rc.sz.BuildK, Seed: rc.seed + 1000 + uint64(i)}
		t0 := time.Now()
		res, err := wavelethist.BuildDistributed(ctx, b.ds, c.method, opts, b.coord)
		if err != nil {
			return err
		}
		steady = append(steady, time.Since(t0).Seconds())
		last = res
	}
	lv.set("dist.worker.materialize_s", math.Max(0, b.firstDistS-median(steady)))
	var rpcs, retries, replayed int
	for _, pr := range last.PerRound {
		rpcs += pr.RPCs
		retries += pr.Retries
		replayed += pr.ReplayedSplits
		lv.set(fmt.Sprintf("dist.wire_r%d_bytes", pr.Round), float64(pr.WireBytes))
	}
	lv.set("dist.rpcs", float64(rpcs))
	lv.set("dist.retries", float64(retries))
	lv.set("dist.replayed_splits", float64(replayed))

	if tv, ok := b.coord.Trace(last.DistJobID); ok && len(tv.Spans) > 0 {
		var (
			durs []float64
			ivs  []interval
		)
		for _, s := range tv.Spans {
			durs = append(durs, float64(s.DurMicros)/1e3)
			ivs = append(ivs, interval{s.StartUnixMicros, s.StartUnixMicros + s.DurMicros})
		}
		lv.set("dist.map_rpc_ms", median(durs))
		// Coordinator self time: the build's wall time during which no map
		// RPC was in flight (reduce, broadcast, scheduling).
		busy := covered(ivs, tv.StartUnixMicros, tv.EndUnixMicros)
		lv.set("dist.coord.self_s", float64(tv.EndUnixMicros-tv.StartUnixMicros-busy)/1e6)
	} else {
		lv.problem("coordinator kept no trace of build %s", last.DistJobID)
	}

	// The same seed again: every split comes from the workers' caches.
	t0 := time.Now()
	warm, err := wavelethist.BuildDistributed(ctx, b.ds, c.method, opts, b.coord)
	if err != nil {
		return err
	}
	lv.set("dist.cache.warm_build_s", time.Since(t0).Seconds())
	lv.set("dist.cache.hit_ratio", float64(warm.CachedSplits)/float64(b.ds.NumSplits(0)*warm.Rounds))
	if !sameCoefficients(warm.Histogram, last.Histogram, true) {
		lv.problem("cached build differs from the computed one")
	}

	// One real map RPC's frames: a 4-split assignment and its response.
	file, _, err := b.ds.Spec().Materialize()
	if err != nil {
		return err
	}
	p := core.Params{U: rc.sz.Domain, K: rc.sz.BuildK, Seed: rc.seed}.Defaults()
	req := &dist.MapRequest{JobID: "build-layers", Method: string(c.method), Params: p, Dataset: *b.ds.Spec(), Splits: []int{0, 1, 2, 3}, Round: 1, Rounds: core.Rounds(string(c.method))}
	parts, _, err := core.MapRoundSplits(ctx, file, string(c.method), p, 1, nil, req.Splits, core.NewWorkerState())
	if err != nil {
		return err
	}
	frame := dist.EncodeMapResponse(&dist.MapResponse{JobID: req.JobID, Partials: core.EncodePartials(parts)})
	ns := chunkNs(nil, "", 40, 50, func(int) { dist.EncodeMapRequest(req) })
	lv.set("dist.codec.map_request_encode_us", ns/1e3)
	ns = chunkNs(nil, "", 40, 50, func(int) {
		if _, derr := dist.DecodeMapResponse(frame); derr != nil {
			err = derr
		}
	})
	lv.set("dist.codec.map_response_decode_us", ns/1e3)
	return err
}
