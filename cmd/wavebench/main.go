// Command wavebench runs the benchmark matrix CI publishes as
// BENCH_pr<N>.json: every construction method on a seeded Zipf dataset
// (simulated cluster), plus distributed loopback builds of the methods
// the acceptance gate tracks — method × comm-bytes × build-time, the
// repo's perf trajectory over PRs. Distributed rows carry the wire format
// used for byte accounting ("binary" frames vs the legacy "json"
// encoding), warm rows repeat a build against the same fleet to measure
// the workers' partial cache (cached_splits == splits means zero
// recomputation), and the parallel_map section times the worker map fan
// (1 goroutine vs GOMAXPROCS) over one 32-split assignment.
//
// The -queries pass benchmarks the query plane: point/range/batch (1D),
// 2D point, and maintainer update/read traffic, each with a
// query_engine dimension contrasting the O(k) linear scan with the
// error-tree index ("scan" vs "errtree"), plus an end-to-end HTTP batch
// row — ns/op and allocs/op land in the queries section of the report.
// The batch_scalar vs batch_vec rows isolate the vectorized executor:
// the same 256-query batch answered by independent scalar tree walks
// and by the shared-walk merge-join (bit-identical results). The
// vec_threshold sweep brackets the dispatch crossover behind
// serve.Config.VecBatchMin, batch_arena contrasts the flat SoA term
// arena with the retired linked-list one, batch_par times the per-core
// parallel segment executors against the serial shared walk on a
// 4096-query batch (annotated, not skipped, on one core), and range2d
// compares the 2D rectangle sum through the error tree with the scan.
// The registry section compares snapshot-read QPS through the single
// atomic-pointer registry against the per-core striped one, at
// GOMAXPROCS concurrent readers.
//
// The -cluster pass stands up an in-process sharded cluster (two shards,
// each a primary plus a synced read replica, fronted by the consistent-
// hash router) and samples end-to-end routed latency: single point reads
// through the router, the cross-shard scatter-gather batch, and reads
// after a primary is killed (served by the replica via router failover)
// — p50/p99 land in the cluster section. The -qps-workers sweep adds
// sustained-throughput rows: W concurrent clients per level hammer routed
// point reads, reporting achieved QPS plus client-side AND server-side
// p50/p99 (the latter read back from the shard's own latency histograms
// via /v1/stats, so router overhead is separable from serving cost). The
// sweep then repeats through a second router with query coalescing on
// (-coalesce-wait style config), so the wait-window latency tax and the
// batching throughput win are both on the record. The pass closes with
// a failover_mttr row: a health-checked router (25ms probes) over one
// primary+replica shard, primary killed cold — kill → first successful
// routed read and kill → first successful routed write (fenced
// auto-promotion complete) in milliseconds.
//
// Usage:
//
//	wavebench -out BENCH_pr10.json
//	wavebench -records 1048576 -domain 65536 -workers 4 -out bench.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/ha"
	"wavelethist/internal/core"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
	"wavelethist/internal/zipf"
	"wavelethist/serve"
)

// Row is one benchmark measurement.
type Row struct {
	Method           string     `json:"method"`
	Mode             string     `json:"mode"` // "simulated" | "distributed"
	WireFormat       string     `json:"wire_format,omitempty"`
	Warm             bool       `json:"warm,omitempty"`
	CommBytes        int64      `json:"comm_bytes"`
	ModelCommBytes   int64      `json:"model_comm_bytes"`
	WireBytes        int64      `json:"wire_bytes,omitempty"`
	Rounds           int        `json:"rounds"`
	CandidateSetSize int        `json:"candidate_set_size,omitempty"`
	CachedSplits     int        `json:"cached_splits,omitempty"`
	PerRound         []RoundRow `json:"per_round,omitempty"`
	RecordsRead      int64      `json:"records_read"`
	BytesRead        int64      `json:"bytes_read"`
	WallMillis       int64      `json:"wall_millis"`
	SimulatedSeconds float64    `json:"simulated_seconds"`
}

// RoundRow is one round's slice of a multi-round row.
type RoundRow struct {
	Round          int   `json:"round"`
	ModelCommBytes int64 `json:"model_comm_bytes"`
	WireBytes      int64 `json:"wire_bytes,omitempty"`
	CachedSplits   int   `json:"cached_splits,omitempty"`
}

// ParallelMap profiles one worker-side map fan-out: the same 32-split
// assignment run with 1 goroutine and with GOMAXPROCS goroutines. On a
// single-core machine both passes run the identical serial path, so the
// parallel pass is skipped and Note says why — publishing a "speedup"
// that is pure scheduler noise would misread as a regression.
type ParallelMap struct {
	Method         string  `json:"method"`
	Splits         int     `json:"splits"`
	SerialMillis   int64   `json:"serial_millis"`
	ParallelMillis int64   `json:"parallel_millis,omitempty"`
	Speedup        float64 `json:"speedup,omitempty"`
	Note           string  `json:"note,omitempty"`
}

// QueryRow is one query-plane measurement: an operation × engine cell of
// the scan-vs-errtree comparison, in ns/op and allocs/op.
type QueryRow struct {
	Op          string  `json:"op"`           // point | range | range2d | batch | batch_scalar | batch_vec | batch_arena | batch_par | vec_threshold | point2d | maintain_update_read | maintain_read | http_batch
	Engine      string  `json:"query_engine"` // "scan" | "errtree" | "vec" | "scalar" | "flat" | "linked"
	Dim         int     `json:"dim"`
	K           int     `json:"k"`
	Domain      int64   `json:"domain"` // grid side for dim == 2
	Batch       int     `json:"batch,omitempty"`
	Workers     int     `json:"workers,omitempty"`    // parallel executor fan width (batch_par rows)
	Maintainer  string  `json:"maintainer,omitempty"` // "cold" (update between reads) | "warm" (cached)
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Note        string  `json:"note,omitempty"`
}

// RegistryRow is one registry snapshot-read throughput measurement:
// GOMAXPROCS goroutines spin on Lookup against the single-pointer
// registry ("single") and the per-core striped one ("striped") — the
// QPS gap is what padding the hot pointer across cache lines buys under
// read contention.
type RegistryRow struct {
	Mode    string  `json:"mode"` // "single" | "striped"
	Stripes int     `json:"stripes"`
	Workers int     `json:"workers"`
	Ops     int     `json:"ops"`
	QPS     float64 `json:"qps"`
}

// ClusterRow is one serving-tier latency measurement through the
// router, in wall-clock microseconds at the labeled percentiles.
// Sustained-QPS rows (op routed_point_qps) additionally report the
// concurrency level, the achieved throughput, and the server-side
// quantiles read back from the shard's own latency histograms via
// /v1/stats — client-side tail minus server-side tail isolates the
// router+transport overhead from serving cost.
type ClusterRow struct {
	Op              string  `json:"op"` // routed_point | cross_batch | routed_point_failover | routed_point_qps | coalesced_point_qps | failover_mttr
	Shards          int     `json:"shards"`
	Replicas        int     `json:"replicas_per_shard"`
	Batch           int     `json:"batch,omitempty"`
	Workers         int     `json:"workers,omitempty"` // concurrent client goroutines
	Samples         int     `json:"samples"`
	QPS             float64 `json:"qps,omitempty"` // achieved sustained throughput
	P50Micros       float64 `json:"p50_micros"`
	P99Micros       float64 `json:"p99_micros"`
	ServerP50Micros float64 `json:"server_p50_micros,omitempty"`
	ServerP99Micros float64 `json:"server_p99_micros,omitempty"`
	// failover_mttr row only: time from killing the primary to the first
	// successful routed read (replica failover) and to the first
	// successful routed write (health-checker auto-promotion complete).
	MTTRReadMillis  float64 `json:"mttr_read_millis,omitempty"`
	MTTRWriteMillis float64 `json:"mttr_write_millis,omitempty"`
	ProbeMillis     float64 `json:"probe_interval_millis,omitempty"`
}

// Report is the file layout.
type Report struct {
	GeneratedUnix int64 `json:"generated_unix"`
	GoMaxProcs    int   `json:"gomaxprocs"`
	Dataset       struct {
		Kind    string  `json:"kind"`
		Records int64   `json:"records"`
		Domain  int64   `json:"domain"`
		Alpha   float64 `json:"alpha"`
		Seed    uint64  `json:"seed"`
		Splits  int     `json:"splits"`
	} `json:"dataset"`
	K           int           `json:"k"`
	Workers     int           `json:"workers"`
	Results     []Row         `json:"results"`
	ParallelMap *ParallelMap  `json:"parallel_map,omitempty"`
	Queries     []QueryRow    `json:"queries,omitempty"`
	Registry    []RegistryRow `json:"registry,omitempty"`
	Cluster     []ClusterRow  `json:"cluster,omitempty"`
}

func main() {
	var (
		out        = flag.String("out", "BENCH_pr10.json", "output file")
		records    = flag.Int64("records", 1<<19, "dataset records")
		domain     = flag.Int64("domain", 1<<14, "key domain (power of two)")
		alpha      = flag.Float64("alpha", 1.1, "zipf skew")
		seed       = flag.Uint64("seed", 42, "seed")
		k          = flag.Int("k", 30, "retained coefficients")
		workers    = flag.Int("workers", 3, "loopback workers for distributed rows")
		queries    = flag.Bool("queries", true, "run the query-plane pass (scan vs errtree)")
		qk         = flag.Int("qk", 2048, "retained coefficients for the query pass")
		qdomain    = flag.Int64("qdomain", 1<<20, "key domain for the query pass (power of two)")
		cluster    = flag.Bool("cluster", true, "run the serving-tier pass (routed p50/p99 through the sharded cluster)")
		qpsWorkers = flag.String("qps-workers", "1,4,16", "comma-separated concurrency levels for the sustained-QPS sweep in the cluster pass (empty = skip)")
	)
	flag.Parse()
	levels, err := parseLevels(*qpsWorkers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wavebench: -qps-workers:", err)
		os.Exit(1)
	}
	if err := run(*out, *records, *domain, *alpha, *seed, *k, *workers, *queries, *qk, *qdomain, *cluster, levels); err != nil {
		fmt.Fprintln(os.Stderr, "wavebench:", err)
		os.Exit(1)
	}
}

// parseLevels parses the -qps-workers list ("1,4,16") into sorted
// positive concurrency levels.
func parseLevels(spec string) ([]int, error) {
	var levels []int
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad concurrency level %q", f)
		}
		levels = append(levels, n)
	}
	sort.Ints(levels)
	return levels, nil
}

func run(out string, records, domain int64, alpha float64, seed uint64, k, workers int, queries bool, qk int, qdomain int64, cluster bool, qpsLevels []int) error {
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: records, Domain: domain, Alpha: alpha, Seed: seed,
	})
	if err != nil {
		return err
	}
	var rep Report
	rep.GeneratedUnix = time.Now().Unix()
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.Dataset.Kind = "zipf"
	rep.Dataset.Records = records
	rep.Dataset.Domain = domain
	rep.Dataset.Alpha = alpha
	rep.Dataset.Seed = seed
	rep.Dataset.Splits = ds.NumSplits(0)
	rep.K = k
	rep.Workers = workers

	opts := wavelethist.Options{K: k, Seed: seed}
	for _, m := range wavelethist.Methods() {
		t0 := time.Now()
		res, err := wavelethist.Build(ds, m, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", m, err)
		}
		rep.Results = append(rep.Results, row(string(m), "simulated", "", false, res, time.Since(t0)))
		fmt.Printf("%-12s simulated    comm=%-10d wall=%v\n", m, res.CommBytes, time.Since(t0).Round(time.Millisecond))
	}

	// Distributed rows on the binary wire format; Send-V and H-WTopk run
	// twice against the same fleet — the repeat ("warm") build is served
	// from the workers' partial caches.
	coord, _ := dist.NewLoopbackCluster(workers, 2, dist.Config{})
	distRow := func(m wavelethist.Method, c *dist.Coordinator, format string, warm bool) error {
		t0 := time.Now()
		res, err := wavelethist.BuildDistributed(context.Background(), ds, m, opts, c)
		if err != nil {
			return fmt.Errorf("%s distributed: %w", m, err)
		}
		rep.Results = append(rep.Results, row(string(m), "distributed", format, warm, res, time.Since(t0)))
		label := "distributed"
		if warm {
			label = "dist-warm"
		}
		fmt.Printf("%-12s %-12s wire=%-9d cached=%-3d wall=%v (%s)\n",
			m, label, res.WireBytes, res.CachedSplits, time.Since(t0).Round(time.Millisecond), format)
		return nil
	}
	for _, m := range []wavelethist.Method{wavelethist.SendV, wavelethist.TwoLevelS, wavelethist.HWTopk} {
		if err := distRow(m, coord, "binary", false); err != nil {
			return err
		}
	}
	for _, m := range []wavelethist.Method{wavelethist.SendV, wavelethist.HWTopk} {
		if err := distRow(m, coord, "binary", true); err != nil {
			return err
		}
	}
	// JSON baseline on a fresh fleet (separate caches), for the wire-
	// format comparison.
	jsonCoord, lb := dist.NewLoopbackCluster(workers, 2, dist.Config{})
	lb.JSONWire = true
	if err := distRow(wavelethist.SendV, jsonCoord, "json", false); err != nil {
		return err
	}

	pm, err := parallelMap(ds, k, alpha, seed)
	if err != nil {
		return err
	}
	rep.ParallelMap = pm
	if pm.Note != "" {
		fmt.Printf("parallel map: %d splits, serial=%dms — %s\n", pm.Splits, pm.SerialMillis, pm.Note)
	} else {
		fmt.Printf("parallel map: %d splits, serial=%dms parallel=%dms speedup=%.2fx (GOMAXPROCS=%d)\n",
			pm.Splits, pm.SerialMillis, pm.ParallelMillis, pm.Speedup, rep.GoMaxProcs)
	}

	if queries {
		qrows, err := queryPass(records, alpha, seed, qk, qdomain)
		if err != nil {
			return err
		}
		rep.Queries = qrows
		for _, q := range qrows {
			fmt.Printf("query %-22s %-8s dim=%d k=%-5d u=%-8d %12.1f ns/op %4d allocs/op\n",
				q.Op+maintLabel(q), q.Engine, q.Dim, q.K, q.Domain, q.NsPerOp, q.AllocsPerOp)
		}
	}

	if queries {
		rrows, err := registryPass(records, alpha, seed, qk, qdomain)
		if err != nil {
			return err
		}
		rep.Registry = rrows
		for _, r := range rrows {
			fmt.Printf("registry %-8s stripes=%-3d workers=%-3d qps=%.0f\n", r.Mode, r.Stripes, r.Workers, r.QPS)
		}
	}

	if cluster {
		crows, err := clusterPass(records, domain, alpha, seed, k, qpsLevels)
		if err != nil {
			return err
		}
		mttr, err := mttrPass(records, domain, alpha, seed, k)
		if err != nil {
			return err
		}
		crows = append(crows, *mttr)
		rep.Cluster = crows
		for _, c := range crows {
			if c.Op == "failover_mttr" {
				fmt.Printf("cluster %-22s probe=%.0fms mttr_read=%.1fms mttr_write=%.1fms\n",
					c.Op, c.ProbeMillis, c.MTTRReadMillis, c.MTTRWriteMillis)
				continue
			}
			if c.QPS != 0 {
				line := fmt.Sprintf("cluster %-22s workers=%-3d qps=%-8.0f p50=%8.1fµs p99=%8.1fµs",
					c.Op, c.Workers, c.QPS, c.P50Micros, c.P99Micros)
				if c.ServerP50Micros != 0 {
					line += fmt.Sprintf(" server p50=%8.1fµs p99=%8.1fµs", c.ServerP50Micros, c.ServerP99Micros)
				}
				fmt.Println(line)
				continue
			}
			fmt.Printf("cluster %-22s shards=%d samples=%-5d p50=%8.1fµs p99=%8.1fµs\n",
				c.Op, c.Shards, c.Samples, c.P50Micros, c.P99Micros)
		}
	}

	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// parallelMap times one worker-shaped map fan: every split of the bench
// dataset mapped in a single assignment, serially vs across GOMAXPROCS.
func parallelMap(ds *wavelethist.Dataset, k int, alpha float64, seed uint64) (*ParallelMap, error) {
	spec := dist.DatasetSpec{
		Kind: "zipf", Records: ds.NumRecords(), Domain: ds.Domain(),
		Alpha: alpha, Seed: seed,
	}
	file, _, err := spec.Materialize()
	if err != nil {
		return nil, err
	}
	p := core.Params{U: ds.Domain(), K: k, Seed: seed}
	splits := make([]int, core.NumSplits(file, p))
	for i := range splits {
		splits[i] = i
	}
	time1, err := timeMap(file, p, splits, 1)
	if err != nil {
		return nil, err
	}
	pm := &ParallelMap{
		Method:       string(wavelethist.SendV),
		Splits:       len(splits),
		SerialMillis: time1.Milliseconds(),
	}
	if runtime.GOMAXPROCS(0) < 2 {
		pm.Note = "GOMAXPROCS=1: parallel pass skipped (no cores to fan across; both passes would run the serial path)"
		return pm, nil
	}
	timeN, err := timeMap(file, p, splits, 0) // 0 = GOMAXPROCS
	if err != nil {
		return nil, err
	}
	pm.ParallelMillis = timeN.Milliseconds()
	if timeN > 0 {
		pm.Speedup = float64(time1) / float64(timeN)
	}
	return pm, nil
}

func timeMap(file *hdfs.File, p core.Params, splits []int, parallelism int) (time.Duration, error) {
	p.Parallelism = parallelism
	t0 := time.Now()
	if _, err := core.MapSplits(context.Background(), file, string(wavelethist.SendV), p, splits); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func row(method, mode, format string, warm bool, res *wavelethist.Result, wall time.Duration) Row {
	r := Row{
		Method:           method,
		Mode:             mode,
		WireFormat:       format,
		Warm:             warm,
		CommBytes:        res.CommBytes,
		ModelCommBytes:   res.ModelCommBytes,
		WireBytes:        res.WireBytes,
		Rounds:           res.Rounds,
		CandidateSetSize: res.CandidateSetSize,
		CachedSplits:     res.CachedSplits,
		RecordsRead:      res.RecordsRead,
		BytesRead:        res.BytesRead,
		WallMillis:       wall.Milliseconds(),
		SimulatedSeconds: res.SimulatedSeconds(),
	}
	for _, pr := range res.PerRound {
		r.PerRound = append(r.PerRound, RoundRow{
			Round:          pr.Round,
			ModelCommBytes: pr.ModelCommBytes,
			WireBytes:      pr.WireBytes,
			CachedSplits:   pr.CachedSplits,
		})
	}
	return r
}

func maintLabel(q QueryRow) string {
	if q.Maintainer == "" {
		return ""
	}
	return "(" + q.Maintainer + ")"
}

// queryPass benchmarks the query plane: the same estimates answered by
// the O(k) linear scan and by the error-tree index, over a real build at
// serving-scale k and domain, plus the batch path through serve.Entry
// (allocation-free on reused buffers), 2D points, the incremental
// maintainer under interleaved update/read traffic, and one end-to-end
// HTTP batch row.
func queryPass(records int64, alpha float64, seed uint64, qk int, qdomain int64) ([]QueryRow, error) {
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: records, Domain: qdomain, Alpha: alpha, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	res, err := wavelethist.Build(ds, wavelethist.SendV, wavelethist.Options{K: qk, Seed: seed})
	if err != nil {
		return nil, err
	}
	h := res.Histogram
	coefs := make([]wavelet.Coef, 0, h.K())
	for _, c := range h.Coefficients() {
		coefs = append(coefs, wavelet.Coef{Index: c.Index, Value: c.Value})
	}
	rep1 := wavelet.NewRepresentation(qdomain, coefs)
	k := rep1.K()

	bench := func(row QueryRow, fn func(i int)) QueryRow {
		// Best of 3: shared-host steal time inflates single runs by 30%+;
		// the minimum is the closest estimate of the code's true cost.
		var best testing.BenchmarkResult
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					fn(i)
				}
			})
			if rep == 0 || r.NsPerOp() < best.NsPerOp() {
				best = r
			}
		}
		row.NsPerOp = float64(best.NsPerOp())
		row.AllocsPerOp = best.AllocsPerOp()
		return row
	}
	var rows []QueryRow
	var sink float64
	mask := qdomain - 1

	rows = append(rows,
		bench(QueryRow{Op: "point", Engine: "scan", Dim: 1, K: k, Domain: qdomain}, func(i int) {
			sink += rep1.ScanPointEstimate((int64(i) * 2654435761) & mask)
		}),
		bench(QueryRow{Op: "point", Engine: "errtree", Dim: 1, K: k, Domain: qdomain}, func(i int) {
			sink += rep1.PointEstimate((int64(i) * 2654435761) & mask)
		}),
		bench(QueryRow{Op: "range", Engine: "scan", Dim: 1, K: k, Domain: qdomain}, func(i int) {
			lo := (int64(i) * 2654435761) & (mask >> 1)
			sink += rep1.ScanRangeSum(lo, lo+qdomain/4)
		}),
		bench(QueryRow{Op: "range", Engine: "errtree", Dim: 1, K: k, Domain: qdomain}, func(i int) {
			lo := (int64(i) * 2654435761) & (mask >> 1)
			sink += rep1.RangeSum(lo, lo+qdomain/4)
		}),
	)

	// Batch rows: 256 mixed point/range sub-queries per op, answered
	// through serve.Entry with reused buffers (the HTTP handler's pooled
	// path) and, as the scan baseline, the same loop over the linear scan.
	const batchN = 256
	bqs := make([]serve.BatchQuery, batchN)
	for i := range bqs {
		if i%2 == 0 {
			bqs[i] = serve.BatchQuery{Op: "point", Key: (int64(i) * 7919) & mask}
		} else {
			bqs[i] = serve.BatchQuery{Op: "range", Lo: int64(i * 1024), Hi: (int64(i) * 1024) + qdomain/8}
		}
	}
	brs := make([]serve.BatchResult, batchN)
	reg := serve.NewRegistry()
	entry, err := reg.Publish("bench", h)
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		bench(QueryRow{Op: "batch", Engine: "scan", Dim: 1, K: k, Domain: qdomain, Batch: batchN}, func(i int) {
			for _, q := range bqs {
				if q.Op == "point" {
					sink += rep1.ScanPointEstimate(q.Key)
				} else {
					sink += rep1.ScanRangeSum(q.Lo, q.Hi)
				}
			}
		}),
		bench(QueryRow{Op: "batch", Engine: "errtree", Dim: 1, K: k, Domain: qdomain, Batch: batchN}, func(i int) {
			entry.Batch(bqs, brs)
		}),
	)

	// batch_scalar vs batch_vec: the same 256-query workload answered by
	// independent scalar error-tree walks and by the shared-walk batch
	// executors (bit-identical outputs) — the vectorization win isolated
	// from serve-layer dispatch.
	var pKeys, rLos, rHis []int64
	for _, q := range bqs {
		if q.Op == "point" {
			pKeys = append(pKeys, q.Key)
		} else {
			rLos = append(rLos, q.Lo)
			rHis = append(rHis, q.Hi)
		}
	}
	pOut := make([]float64, len(pKeys))
	rOut := make([]float64, len(rLos))
	rows = append(rows,
		bench(QueryRow{Op: "batch_scalar", Engine: "errtree", Dim: 1, K: k, Domain: qdomain, Batch: batchN}, func(i int) {
			for m, x := range pKeys {
				pOut[m] = rep1.PointEstimate(x)
			}
			for m := range rLos {
				rOut[m] = rep1.RangeSum(rLos[m], rHis[m])
			}
		}),
		bench(QueryRow{Op: "batch_vec", Engine: "errtree", Dim: 1, K: k, Domain: qdomain, Batch: batchN}, func(i int) {
			rep1.BatchPoints(pKeys, pOut)
			rep1.BatchRanges(rLos, rHis, rOut)
		}),
	)

	// vec_threshold: the crossover sweep behind serve.Config.VecBatchMin —
	// the same n-point batch answered by n independent scalar walks and by
	// the shared-walk executor, at sizes bracketing the default threshold
	// (16). Below the crossover the executor's sort-and-park setup costs
	// more than the walks it merges; the published rows are the evidence
	// for the default.
	threshKeys := make([]int64, 64)
	for i := range threshKeys {
		threshKeys[i] = (int64(i) * 2654435761) & mask
	}
	threshOut := make([]float64, len(threshKeys))
	for _, n := range []int{4, 8, 16, 32, 64} {
		keys, tOut := threshKeys[:n], threshOut[:n]
		rows = append(rows,
			bench(QueryRow{Op: "vec_threshold", Engine: "scalar", Dim: 1, K: k, Domain: qdomain, Batch: n}, func(i int) {
				for m, x := range keys {
					tOut[m] = rep1.PointEstimate(x)
				}
			}),
			bench(QueryRow{Op: "vec_threshold", Engine: "vec", Dim: 1, K: k, Domain: qdomain, Batch: n}, func(i int) {
				rep1.BatchPoints(keys, tOut)
			}),
		)
	}

	// batch_arena isolates the flat SoA term arena: the identical shared
	// walk run against the retired linked-list arena (kept as a baseline)
	// and against the contiguous one — the gap is pure memory layout.
	// batch_par then takes the flat executor and fans it across the
	// per-core segment workers on a batch big enough to cross the
	// serve-layer parBatchMin; outputs are bit-identical at any width, so
	// the rows measure cost only. On a one-core runner the parallel row
	// still runs (segmentation overhead is real data) but carries a note
	// so nobody reads scheduler noise as a speedup regression.
	const parN = 4096
	parKeys := make([]int64, parN)
	parLos := make([]int64, parN)
	parHis := make([]int64, parN)
	for i := range parKeys {
		parKeys[i] = (int64(i) * 2654435761) & mask
		parLos[i] = (int64(i) * 40503) & (mask >> 1)
		parHis[i] = parLos[i] + qdomain/8
	}
	parPOut := make([]float64, parN)
	parROut := make([]float64, parN)
	rows = append(rows,
		bench(QueryRow{Op: "batch_arena", Engine: "linked", Dim: 1, K: k, Domain: qdomain, Batch: parN}, func(i int) {
			rep1.BatchPointsLinkedArena(parKeys, parPOut)
		}),
		bench(QueryRow{Op: "batch_arena", Engine: "flat", Dim: 1, K: k, Domain: qdomain, Batch: parN}, func(i int) {
			rep1.BatchPoints(parKeys, parPOut)
		}),
		bench(QueryRow{Op: "batch_par", Engine: "errtree", Dim: 1, K: k, Domain: qdomain, Batch: parN, Workers: 1}, func(i int) {
			rep1.BatchPoints(parKeys, parPOut)
			rep1.BatchRanges(parLos, parHis, parROut)
		}),
	)
	procs := runtime.GOMAXPROCS(0)
	parLevels := []int{2}
	if procs > 2 {
		parLevels = append(parLevels, procs)
	}
	for _, w := range parLevels {
		r := bench(QueryRow{Op: "batch_par", Engine: "errtree", Dim: 1, K: k, Domain: qdomain, Batch: parN, Workers: w}, func(i int) {
			rep1.BatchPointsParallel(parKeys, parPOut, w)
			rep1.BatchRangesParallel(parLos, parHis, parROut, w)
		})
		if procs < 2 {
			r.Note = "GOMAXPROCS=1: parallel executors timed on one core — the row prices segmentation overhead, speedup needs multiple cores"
		}
		rows = append(rows, r)
	}

	// 2D points on a synthesized representation (side² cells; a real 2D
	// build at this k would dominate the pass's runtime without changing
	// what is measured).
	const side = int64(1 << 10)
	rng := zipf.NewRNG(seed)
	coefs2 := make([]wavelet.Coef, 1024)
	for i := range coefs2 {
		coefs2[i] = wavelet.Coef{Index: rng.Int63n(side * side), Value: (rng.Float64() - 0.5) * 1000}
	}
	rep2 := wavelet.NewRepresentation2D(side, coefs2)
	rows = append(rows,
		bench(QueryRow{Op: "point2d", Engine: "scan", Dim: 2, K: len(coefs2), Domain: side}, func(i int) {
			sink += rep2.ScanPointEstimate((int64(i)*31)&(side-1), (int64(i)*17)&(side-1))
		}),
		bench(QueryRow{Op: "point2d", Engine: "errtree", Dim: 2, K: len(coefs2), Domain: side}, func(i int) {
			sink += rep2.PointEstimate((int64(i)*31)&(side-1), (int64(i)*17)&(side-1))
		}),
		bench(QueryRow{Op: "range2d", Engine: "scan", Dim: 2, K: len(coefs2), Domain: side}, func(i int) {
			xlo := (int64(i) * 31) & (side/2 - 1)
			ylo := (int64(i) * 17) & (side/2 - 1)
			sink += rep2.ScanRangeSum(xlo, xlo+side/4, ylo, ylo+side/4)
		}),
		bench(QueryRow{Op: "range2d", Engine: "errtree", Dim: 2, K: len(coefs2), Domain: side}, func(i int) {
			xlo := (int64(i) * 31) & (side/2 - 1)
			ylo := (int64(i) * 17) & (side/2 - 1)
			sink += rep2.RangeSum(xlo, xlo+side/4, ylo, ylo+side/4)
		}),
	)

	// Maintainer rows: "cold" interleaves one update with one read — the
	// serve updates→point pattern. The scan baseline re-selects top-k over
	// the tracked set per read (the pre-errtree behavior); the errtree
	// engine repairs the partition incrementally and patches the snapshot.
	mkMaint := func() *wavelet.Maintainer {
		return wavelet.NewMaintainer(qdomain, coefs, qk, 0)
	}
	mScan, mInc := mkMaint(), mkMaint()
	warm := mkMaint()
	warm.Representation()
	rows = append(rows,
		bench(QueryRow{Op: "maintain_update_read", Engine: "scan", Dim: 1, K: qk, Domain: qdomain, Maintainer: "cold"}, func(i int) {
			mScan.Update((int64(i)*2654435761)&mask, 1)
			r := wavelet.NewRepresentation(qdomain, wavelet.SelectTopK(mScan.TrackedCoefs(), qk))
			sink += r.PointEstimate(int64(i) & mask)
		}),
		bench(QueryRow{Op: "maintain_update_read", Engine: "errtree", Dim: 1, K: qk, Domain: qdomain, Maintainer: "cold"}, func(i int) {
			mInc.Update((int64(i)*2654435761)&mask, 1)
			sink += mInc.Representation().PointEstimate(int64(i) & mask)
		}),
		bench(QueryRow{Op: "maintain_read", Engine: "errtree", Dim: 1, K: qk, Domain: qdomain, Maintainer: "warm"}, func(i int) {
			sink += warm.Representation().PointEstimate(int64(i) & mask)
		}),
	)

	// End-to-end HTTP: the batch endpoint through JSON decode, pooled
	// buffers, the shared index, and JSON encode.
	srv, err := serve.NewServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	if _, err := srv.Registry().Publish("bench", h); err != nil {
		return nil, err
	}
	body, err := json.Marshal(map[string]any{"queries": bqs})
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		bench(QueryRow{Op: "http_batch", Engine: "errtree", Dim: 1, K: k, Domain: qdomain, Batch: batchN}, func(i int) {
			req := httptest.NewRequest("POST", "/v1/hist/bench/query", bytes.NewReader(body))
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, req)
			if w.Code != 200 {
				panic(fmt.Sprintf("http batch returned %d", w.Code))
			}
		}),
	)
	_ = sink
	return rows, nil
}

// registryPass measures registry snapshot-read throughput at GOMAXPROCS
// concurrent readers, single-pointer vs per-core striped. Each reader
// does Lookup (one striped or shared atomic load plus a map probe) in a
// hot loop — the serving tier's per-query fixed cost. Under real load
// every core runs this against the same registry, so the shared-pointer
// cache-line bounce the striping removes is exactly what is measured.
func registryPass(records int64, alpha float64, seed uint64, qk int, qdomain int64) ([]RegistryRow, error) {
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: records, Domain: qdomain, Alpha: alpha, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	res, err := wavelethist.Build(ds, wavelethist.SendV, wavelethist.Options{K: qk, Seed: seed})
	if err != nil {
		return nil, err
	}
	// At least 4 reader goroutines and 2 stripes even on a small machine,
	// so the striped row always runs the striped code path (1 stripe
	// would silently degrade to the single-pointer registry and compare
	// it against itself).
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	stripes := runtime.GOMAXPROCS(0)
	if stripes < 2 {
		stripes = 2
	}
	const perWorker = 1 << 21
	var rows []RegistryRow
	for _, mode := range []struct {
		name    string
		stripes int
	}{{"single", 1}, {"striped", stripes}} {
		reg := serve.NewRegistryStripes(mode.stripes)
		if _, err := reg.Publish("bench", res.Histogram); err != nil {
			return nil, err
		}
		var sink atomic.Uint64
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local uint64
				for i := 0; i < perWorker; i++ {
					if e, ok := reg.Lookup("bench"); ok {
						local += e.Version
					}
				}
				sink.Add(local)
			}()
		}
		wg.Wait()
		elapsed := time.Since(t0)
		if sink.Load() == 0 {
			return nil, fmt.Errorf("registry pass: lookups found nothing")
		}
		total := workers * perWorker
		rows = append(rows, RegistryRow{
			Mode: mode.name, Stripes: mode.stripes, Workers: workers,
			Ops: total, QPS: float64(total) / elapsed.Seconds(),
		})
	}
	return rows, nil
}

// clusterPass measures the serving tier end to end: real HTTP through
// the router to an in-process cluster of two shards, each a primary and
// one synced read replica. Latency is sampled per request (not averaged
// by testing.Benchmark) because the serving tier's contract is a tail —
// p99 through the router is what a query optimizer's planning budget
// sees — and the failover row deliberately pays the dead-primary retry
// on every read, which is the degraded steady state until promotion.
func clusterPass(records, domain int64, alpha float64, seed uint64, k int, qpsLevels []int) ([]ClusterRow, error) {
	const (
		shards       = 2
		pointSamples = 2000
		batchSamples = 300
		batchN       = 64
	)
	type shardNode struct {
		primary *serve.Server
		pTS     *httptest.Server
		replica *serve.Server
		rTS     *httptest.Server
		rep     *ha.Replica
	}
	var (
		nodes []shardNode
		spec  []ha.Shard
	)
	defer func() {
		for _, n := range nodes {
			if n.pTS != nil {
				n.pTS.Close()
			}
			if n.rTS != nil {
				n.rTS.Close()
			}
		}
	}()
	for i := 0; i < shards; i++ {
		pSrv, err := serve.NewServer(serve.Config{Shard: fmt.Sprintf("s%d", i)})
		if err != nil {
			return nil, err
		}
		pTS := httptest.NewServer(pSrv)
		rSrv, err := serve.NewServer(serve.Config{ReadOnly: true, Shard: fmt.Sprintf("s%d", i)})
		if err != nil {
			pTS.Close()
			return nil, err
		}
		rTS := httptest.NewServer(rSrv)
		nodes = append(nodes, shardNode{
			primary: pSrv, pTS: pTS,
			replica: rSrv, rTS: rTS,
			rep: ha.NewReplica(rSrv, pTS.URL, time.Second),
		})
		spec = append(spec, ha.Shard{
			ID: fmt.Sprintf("s%d", i), Primary: pTS.URL, Replicas: []string{rTS.URL},
		})
	}
	router, err := ha.NewRouter(spec)
	if err != nil {
		return nil, err
	}
	rtTS := httptest.NewServer(router)
	defer rtTS.Close()

	// One histogram per shard, built once and published directly, then
	// pulled onto the replicas so failover reads have data to serve.
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: records, Domain: domain, Alpha: alpha, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, shards)
	for i := range names {
		id := fmt.Sprintf("s%d", i)
		for c := 0; c < 256 && names[i] == ""; c++ {
			if n := fmt.Sprintf("bench-%d", c); router.Shard(n).ID == id {
				names[i] = n
			}
		}
		if names[i] == "" {
			return nil, fmt.Errorf("no bench name lands on shard %s", id)
		}
		res, err := wavelethist.Build(ds, wavelethist.SendV, wavelethist.Options{K: k, Seed: seed + uint64(i)})
		if err != nil {
			return nil, err
		}
		if _, err := nodes[i].primary.Registry().Publish(names[i], res.Histogram); err != nil {
			return nil, err
		}
		if err := nodes[i].rep.SyncOnce(context.Background()); err != nil {
			return nil, err
		}
	}

	client := newBenchClient(30 * time.Second)
	defer client.CloseIdleConnections()
	get := func(url string) error {
		resp, err := client.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
		}
		return nil
	}
	sample := func(n int, fn func(i int) error) ([]time.Duration, error) {
		for i := 0; i < 16; i++ { // warm connections and pools
			if err := fn(i); err != nil {
				return nil, err
			}
		}
		lat := make([]time.Duration, n)
		for i := range lat {
			t0 := time.Now()
			if err := fn(i); err != nil {
				return nil, err
			}
			lat[i] = time.Since(t0)
		}
		sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
		return lat, nil
	}
	pctl := func(lat []time.Duration, p float64) float64 {
		idx := int(p * float64(len(lat)-1))
		return float64(lat[idx].Nanoseconds()) / 1e3
	}
	mask := domain - 1

	var rows []ClusterRow
	// Routed point reads, alternating shards — the healthy path.
	lat, err := sample(pointSamples, func(i int) error {
		return get(fmt.Sprintf("%s/v1/hist/%s/point?key=%d", rtTS.URL, names[i%shards], (int64(i)*2654435761)&mask))
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ClusterRow{
		Op: "routed_point", Shards: shards, Replicas: 1, Samples: pointSamples,
		P50Micros: pctl(lat, 0.50), P99Micros: pctl(lat, 0.99),
	})

	// Cross-shard batch: one scatter-gather round trip spanning both shards.
	queries := make([]map[string]any, batchN)
	for i := range queries {
		queries[i] = map[string]any{
			"name": names[i%shards], "op": "point", "key": (int64(i) * 7919) & mask,
		}
	}
	payload, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		return nil, err
	}
	lat, err = sample(batchSamples, func(i int) error {
		resp, err := client.Post(rtTS.URL+"/v1/query", "application/json", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("cross batch: HTTP %d", resp.StatusCode)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ClusterRow{
		Op: "cross_batch", Shards: shards, Replicas: 1, Batch: batchN, Samples: batchSamples,
		P50Micros: pctl(lat, 0.50), P99Micros: pctl(lat, 0.99),
	})

	// Sustained-QPS sweep: W concurrent clients hammer routed point reads
	// against a dedicated histogram per level (fresh per-entry stats, so
	// the server-side quantiles reflect only this level's traffic and the
	// sequential rows above don't contaminate them). Client-side p50/p99
	// come from per-request timing; server-side p50/p99 are read back from
	// the owning primary's /v1/stats — the gap is router + HTTP overhead.
	qpsSweep := func(baseURL, prefix, op string, serverStats bool) error {
		for _, workers := range qpsLevels {
			qpsName := ""
			for c := 0; c < 1024 && qpsName == ""; c++ {
				if n := fmt.Sprintf("%s-%d-%d", prefix, workers, c); router.Shard(n).ID == "s0" {
					qpsName = n
				}
			}
			if qpsName == "" {
				return fmt.Errorf("no %s bench name lands on shard s0", prefix)
			}
			res, err := wavelethist.Build(ds, wavelethist.SendV, wavelethist.Options{K: k, Seed: seed})
			if err != nil {
				return err
			}
			if _, err := nodes[0].primary.Registry().Publish(qpsName, res.Histogram); err != nil {
				return err
			}
			perWorker := 2000 / workers
			if perWorker < 50 {
				perWorker = 50
			}
			total := perWorker * workers
			lats := make([][]time.Duration, workers)
			errs := make([]error, workers)
			var wg sync.WaitGroup
			t0 := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lats[w] = make([]time.Duration, 0, perWorker)
					for i := 0; i < perWorker; i++ {
						key := (int64(w*perWorker+i) * 2654435761) & mask
						q0 := time.Now()
						if err := get(fmt.Sprintf("%s/v1/hist/%s/point?key=%d", baseURL, qpsName, key)); err != nil {
							errs[w] = err
							return
						}
						lats[w] = append(lats[w], time.Since(q0))
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(t0)
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			var all []time.Duration
			for _, l := range lats {
				all = append(all, l...)
			}
			sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
			row := ClusterRow{
				Op: op, Shards: shards, Replicas: 1,
				Workers: workers, Samples: total,
				QPS:       float64(total) / elapsed.Seconds(),
				P50Micros: pctl(all, 0.50), P99Micros: pctl(all, 0.99),
			}
			if serverStats {
				sp50, sp99, err := serverQuantiles(client, nodes[0].pTS.URL, qpsName)
				if err != nil {
					return err
				}
				row.ServerP50Micros, row.ServerP99Micros = sp50, sp99
			}
			rows = append(rows, row)
		}
		return nil
	}
	if err := qpsSweep(rtTS.URL, "qps", "routed_point_qps", true); err != nil {
		return nil, err
	}

	// The same sweep through a coalescing router over the identical
	// topology: single-query GETs arriving within the wait window are
	// merged into one vectorized shard batch. At workers=1 the rows price
	// the wait-window latency tax (every lone query waits out the window);
	// at higher concurrency they show the batching win. Server-side
	// quantiles are skipped — coalesced reads land on the shard as batch
	// POSTs, so per-point serving stats never accrue for these names.
	coalRouter, err := ha.NewRouterConfig(spec, ha.RouterConfig{
		CoalesceWait: 250 * time.Microsecond,
		CoalesceMax:  256,
	})
	if err != nil {
		return nil, err
	}
	coalTS := httptest.NewServer(coalRouter)
	defer coalTS.Close()
	if err := qpsSweep(coalTS.URL, "qpsc", "coalesced_point_qps", false); err != nil {
		return nil, err
	}

	// Kill shard 0's primary: every read now pays the router's detect-and-
	// retry against the replica.
	nodes[0].pTS.Close()
	nodes[0].pTS = nil
	lat, err = sample(pointSamples, func(i int) error {
		return get(fmt.Sprintf("%s/v1/hist/%s/point?key=%d", rtTS.URL, names[0], (int64(i)*2654435761)&mask))
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, ClusterRow{
		Op: "routed_point_failover", Shards: shards, Replicas: 1, Samples: pointSamples,
		P50Micros: pctl(lat, 0.50), P99Micros: pctl(lat, 0.99),
	})
	return rows, nil
}

// mttrPass measures the self-healing tier's recovery time: one shard
// (primary + synced read replica) behind a router probing /healthz
// every 25ms, primary killed cold. MTTR-read is kill → first successful
// routed read (replica failover, no promotion needed); MTTR-write is
// kill → first successful routed write, which requires the health
// checker to detect the death, elect the replica, and complete the
// fenced promotion — the full self-healing loop on the clock.
func mttrPass(records, domain int64, alpha float64, seed uint64, k int) (*ClusterRow, error) {
	const probeEvery = 25 * time.Millisecond
	pSrv, err := serve.NewServer(serve.Config{Shard: "s0"})
	if err != nil {
		return nil, err
	}
	pTS := httptest.NewServer(pSrv)
	defer pTS.Close()
	rSrv, err := serve.NewServer(serve.Config{ReadOnly: true, Shard: "s0"})
	if err != nil {
		return nil, err
	}
	rTS := httptest.NewServer(rSrv)
	defer rTS.Close()

	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: records, Domain: domain, Alpha: alpha, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	res, err := wavelethist.Build(ds, wavelethist.SendV, wavelethist.Options{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	if _, err := pSrv.Registry().Publish("mttr", res.Histogram); err != nil {
		return nil, err
	}
	rep := ha.NewReplica(rSrv, pTS.URL, time.Second)
	if err := rep.SyncOnce(context.Background()); err != nil {
		return nil, err
	}

	router, err := ha.NewRouterConfig([]ha.Shard{{
		ID: "s0", Primary: pTS.URL, Replicas: []string{rTS.URL},
	}}, ha.RouterConfig{
		ProbeInterval:      probeEvery,
		ProbeFailThreshold: 3,
		ReadTimeout:        time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer router.Close()
	rtTS := httptest.NewServer(router)
	defer rtTS.Close()

	client := newBenchClient(5 * time.Second)
	defer client.CloseIdleConnections()
	readURL := rtTS.URL + "/v1/hist/mttr/point?key=1"
	tryRead := func() bool {
		resp, err := client.Get(readURL)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK
	}
	tryWrite := func() bool {
		resp, err := client.Post(rtTS.URL+"/v1/hist/mttr/updates", "application/json",
			strings.NewReader(`{"updates":[{"key":1,"delta":1}]}`))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK
	}
	// Warm the path and let the checker learn the topology.
	deadline := time.Now().Add(10 * time.Second)
	for !tryRead() || !tryWrite() {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mttr pass: healthy cluster never served")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(4 * probeEvery)

	killedAt := time.Now()
	pTS.Close()
	var mttrRead, mttrWrite time.Duration
	deadline = killedAt.Add(30 * time.Second)
	for mttrRead == 0 {
		if tryRead() {
			mttrRead = time.Since(killedAt)
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mttr pass: reads never recovered")
		}
	}
	for mttrWrite == 0 {
		if tryWrite() {
			mttrWrite = time.Since(killedAt)
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("mttr pass: writes never recovered (promotion did not happen)")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return &ClusterRow{
		Op: "failover_mttr", Shards: 1, Replicas: 1, Samples: 1,
		MTTRReadMillis:  float64(mttrRead.Microseconds()) / 1e3,
		MTTRWriteMillis: float64(mttrWrite.Microseconds()) / 1e3,
		ProbeMillis:     float64(probeEvery.Milliseconds()),
	}, nil
}

// newBenchClient is the cluster passes' load-generator client on a
// transport of its own: sharing http.DefaultTransport would cap the
// bench at two idle connections per host, so a -qps-workers level above
// two would time redials, not the router.
func newBenchClient(timeout time.Duration) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = 256
	return &http.Client{Timeout: timeout, Transport: tr}
}

// serverQuantiles reads one histogram's server-side point-query p50/p99
// (microseconds, derived from the serving histograms) out of /v1/stats.
func serverQuantiles(client *http.Client, base, name string) (p50, p99 float64, err error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var stats struct {
		Histograms map[string]struct {
			Stats struct {
				Point struct {
					Count     int64   `json:"count"`
					P50Micros float64 `json:"p50_micros"`
					P99Micros float64 `json:"p99_micros"`
				} `json:"point"`
			} `json:"stats"`
		} `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return 0, 0, err
	}
	h, ok := stats.Histograms[name]
	if !ok || h.Stats.Point.Count == 0 {
		return 0, 0, fmt.Errorf("no server-side point stats for %q", name)
	}
	return h.Stats.Point.P50Micros, h.Stats.Point.P99Micros, nil
}
