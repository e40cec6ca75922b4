package main

import (
	"encoding/json"
	"runtime"
)

// The benchmark's contract with the rest of the repository: workload and
// metric names, units, directions and regression bounds. BENCHMARK.json at
// the repository root is generated from these tables (-print-spec) and a
// test keeps the two identical, so a later issue can name a
// (workload, metric) pair and know the benchmark reports it.

// clients is C, the number of closed-loop clients of every serving
// workload. It is a constant, not derived from the machine: the container
// this benchmark was sized on has two cores, and two clients already keep
// both about 90% busy, so throughput is CPU cost per request.
const clients = 2

// runSeconds is the timed phase of one run (BENCHMARK.json run_seconds).
const runSeconds = 10

// warmSeconds precedes every timed serving phase.
const warmSeconds = 1.0

// setupReps is how often set-up is repeated in a run; setup_s is the
// median, so one slow start does not read as a regression.
const setupReps = 3

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: tolerated relative worsening
	// Moves says, for a per-layer metric, which end-to-end metric it
	// should move and on which workload ("" = none: a record, not a lever).
	Moves string
}

// endToEnd are the metrics every workload reports with tracing off. The
// driver that runs this benchmark requires one metric set for all
// workloads, so a workload is described as two lanes — two closed loops,
// each repeating one kind of operation — and every workload states what
// its lanes are (see workloadSpecs and README.md). A lane's rate and
// median latency are those of its least disturbed slice (see nSlices).
//
// Bounds are set from measured run-to-run spread on the two-core shared VM
// this was sized on, not from what one would wish to resolve: over ten
// runs the lane metrics spread 2% to 12% between quartiles depending on
// what else the host is doing, and a bound the noise exceeds would call a
// regression on an unchanged program.
var endToEnd = []metricSpec{
	{Name: "lane0_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lane0_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "lane1_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "lane1_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "comm_bytes", Unit: "B", Better: "lower", Bound: 0.02},
	{Name: "sse_ratio", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

type workloadSpec struct {
	Name  string
	Why   string
	Lane0 string
	Lane1 string
}

var workloadSpecs = []workloadSpec{
	{
		Name:  "build_exact",
		Why:   "H-WTopk, the paper's exact method: full scan of every split, per-split transform, three rounds; hdfs scan, wavelet transform and core rounds are the work, sampling none of it",
		Lane0: "wavelethist.Build (in-process MapReduce)",
		Lane1: "wavelethist.BuildDistributed (2-worker loopback fleet, partial cache defeated)",
	},
	{
		Name:  "build_sampled",
		Why:   "TwoLevel-S, the paper's sampled method: reads about 1/eps^2 records through the random reader; a scan optimisation must not move it, and it is where accuracy can move",
		Lane0: "wavelethist.Build (in-process MapReduce)",
		Lane1: "wavelethist.BuildDistributed (2-worker loopback fleet, partial cache defeated)",
	},
	{
		Name:  "embed_batch",
		Why:   "embedded-library caller, no HTTP: Registry.Lookup + Entry.Batch of 256 queries; batch executors and registry read path are all of the work here and under 5% anywhere else",
		Lane0: "client 0: Lookup + Entry.Batch, 128 point + 128 range queries",
		Lane1: "client 1: the same operation (the two lanes should agree)",
	},
	{
		Name:  "routed_get",
		Why:   "one-predicate lookup through waverouter: the executor is under 1% of the time; HTTP parse, ring lookup, router-to-shard hop and JSON encode are the rest",
		Lane0: "client 0: GET /v1/hist/{name}/point through the router",
		Lane1: "client 1: GET /v1/hist/{name}/range through the router",
	},
	{
		Name:  "routed_batch",
		Why:   "dashboard plan: POST /v1/query of 256 queries over 8 names fans out 4 calls per shard host, more than the router's 2 idle connections, so transport and hop-format changes show here",
		Lane0: "client 0: POST /v1/query, 256 named queries over 8 names",
		Lane1: "client 1: the same operation (the two lanes should agree)",
	},
	{
		Name:  "serve_mixed",
		Why:   "writes beside reads on one wavehistd, no router: maintainer, Registry.Publish and index rebuild run under the reader, so a read gain paid for by a heavier publish shows only here",
		Lane0: "client 0: POST /v1/hist/{name}/updates, 64 updates, every 4th republishes",
		Lane1: "client 1: GET /v1/hist/{name}/point on the same name",
	},
}

// sizes are the input sizes of one run. Tests shrink them.
type sizes struct {
	Domain int64 // u, every dataset

	ExactRecords int64 // build_exact: H-WTopk input
	ExactChunk   int64 // 128 splits at the default sizes
	SampledRecs  int64 // build_sampled: TwoLevel-S input
	SampledChunk int64 // 256 splits at the default sizes
	BuildK       int   // k of both build workloads
	MinPairs     int   // timed build pairs that always run; comm_bytes and sse_ratio use exactly these

	ServeRecords int64 // input of the serving histogram (Send-V)
	ServeK       int   // k of the serving histogram
	Names        int   // published names in the routed workloads
	BatchQueries int   // queries per batch request
	Batches      int   // pre-generated batch requests
	Gets         int   // pre-generated single-estimate requests per lane
	RangeWidth   int64 // width of every range query
	UpdateBodies int   // pre-generated update requests
	UpdatesPer   int   // updates per request
}

// defaultSizes keep the split counts, k, u, skew and batch shapes of the
// issue that defined this benchmark and shrink the record counts so that
// one run — three set-ups, verification, warm-up and runSeconds of
// measurement — fits the driver's budget of about 25s per run.
func defaultSizes() sizes {
	return sizes{
		Domain:       1 << 20,
		ExactRecords: 1 << 19, ExactChunk: 16 << 10,
		SampledRecs: 1 << 22, SampledChunk: 64 << 10,
		BuildK: 30, MinPairs: 6,
		ServeRecords: 1 << 18, ServeK: 2048,
		Names: 8, BatchQueries: 256, Batches: 64, Gets: 4096, RangeWidth: 4096,
		UpdateBodies: 1024, UpdatesPer: 64,
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static tables of strings and numbers
	}
	return append(b, '\n')
}

// environment is what a result file records about the run besides the
// numbers: enough to tell whether two files are comparable.
type environment struct {
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"timed_seconds"`
	WarmS      float64 `json:"warm_seconds"`
	SetupReps  int     `json:"setup_reps"`
	Sizes      sizes   `json:"sizes"`
}

func newEnvironment(seed uint64, seconds float64, sz sizes) environment {
	return environment{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
		Clients:    clients,
		Seconds:    seconds,
		WarmS:      warmSeconds,
		SetupReps:  setupReps,
		Sizes:      sz,
	}
}
