// Command benchmark is the repository's one ruler: six named workloads,
// from the paper's MapReduce builds to a routed selectivity estimate, each
// reporting the same end-to-end metrics with tracing off and, in a separate
// traced run, where the time goes layer by layer. It drives the system only
// through the public functions of the packages the three daemons are built
// from, checks every output against an oracle, and claims nothing: the
// numbers it prints are the baseline later changes are measured against.
//
// Usage (from the repository root; run.sh builds and runs the same binary):
//
//	bash benchmark/run.sh --workload routed_get --seed 7 --seconds 10 --trace 0
//	bash benchmark/run.sh --workload all                # six child processes
//	bash benchmark/run.sh --workload all --trace 1      # per-layer numbers and span files
//	bash benchmark/run.sh --compare a.json b.json       # regression gate
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md has the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runCtx is one invocation's inputs.
type runCtx struct {
	workload string
	seed     uint64
	seconds  float64
	sz       sizes
	outDir   string
	log      io.Writer // human-readable progress and tables
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's run as stored in the -out directory; the final
// line of standard output is its driver-facing subset.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Env       environment            `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]metricValue `json:"detail,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
	// SliceRates and SliceP50s are each lane's rate and median latency in
	// every slice of the timed phase: how disturbed the run was.
	SliceRates [2][]float64 `json:"slice_rates"`
	SliceP50s  [2][]float64 `json:"slice_p50s_us"`

	// tables prints what a traced run has besides its metrics: the
	// self-time tables.
	tables func(io.Writer)
}

// workloadImpl is how one workload is set up, looped and taken apart
// layer by layer.
type workloadImpl struct {
	setup  func(rc *runCtx) (*rig, error)
	loop   func(rc *runCtx, r *rig, secs float64, rec *recorder) (*outcome, error)
	layers func(rc *runCtx, r *rig, rec *recorder, lv *layerValues) error
}

func setupBuildRig(rc *runCtx) (*rig, error) {
	b, err := setupBuild(buildCaseOf(rc.workload, rc.sz), rc.sz, rc.seed)
	if err != nil {
		return nil, err
	}
	return &rig{build: b, genRecords: buildCaseOf(rc.workload, rc.sz).records, genS: b.genS}, nil
}

var impls = map[string]workloadImpl{
	"build_exact":   {setupBuildRig, loopBuild, layersBuild},
	"build_sampled": {setupBuildRig, loopBuild, layersBuild},
	"embed_batch":   {setupServing, loopEmbed, layersEmbed},
	"routed_get":    {setupServing, loopRoutedGet, layersRouted},
	"routed_batch":  {setupServing, loopRoutedBatch, layersRoutedBatch},
	"serve_mixed":   {setupServing, loopMixed, layersMixed},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "all", "workload name, or all: one child process per workload")
		seed      = fs.Uint64("seed", 42, "seed of every generated input")
		secs      = fs.Float64("seconds", runSeconds, "length of the timed phase")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and span files")
		outDir    = fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
		compare   = fs.Bool("compare", false, "compare two result files (or comma-separated lists, medians taken): -compare A.json B.json")
		specPath  = fs.String("spec", "", "BENCHMARK.json for -compare (default: ./ or ../)")
		printSpec = fs.Bool("print-spec", false, "print BENCHMARK.json as generated from the benchmark's tables")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		stdout.Write(benchmarkJSON())
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), *specPath, stdout, stderr)
	}
	if runtime.NumCPU() < 2 {
		fmt.Fprintf(stdout, "WARNING: nproc=%d; this benchmark is sized for two cores: clients and servers will share one, and numbers will not compare with a two-core run\n", runtime.NumCPU())
	}
	if *workload == "all" {
		return runAll(*seed, *secs, *trace, *outDir, stdout, stderr)
	}
	if _, ok := impls[*workload]; !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	rc := &runCtx{workload: *workload, seed: *seed, seconds: *secs, sz: defaultSizes(), outDir: *outDir, log: stdout}
	var (
		res *result
		err error
	)
	if *trace != 0 {
		res, err = runTraced(rc)
	} else {
		res, err = runEndToEnd(rc)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	if err := res.store(rc.outDir); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// runEndToEnd is the untraced run: set-up setupReps times, then the
// workload's verification pass, warm-up and timed phase.
func runEndToEnd(rc *runCtx) (*result, error) {
	impl := impls[rc.workload]
	var (
		setups []float64
		r      *rig
	)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		next, err := impl.setup(rc)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r = next
	}
	defer r.close()
	out, err := impl.loop(rc, r, rc.seconds, nil)
	if err != nil {
		return nil, err
	}
	res := newResult(rc, 0, out)
	res.Metrics = map[string]metricValue{
		"comm_bytes": {Value: out.comm, Unit: "B"},
		"sse_ratio":  {Value: out.sse, Unit: "ratio"},
		"setup_s":    {Value: median(setups), Unit: "s", Samples: len(setups)},
	}
	for l, ln := range out.lanes {
		lane := fmt.Sprintf("lane%d_", l)
		res.Metrics[lane+"per_s"] = metricValue{Value: ln.perS, Unit: "1/s", Samples: ln.all.N}
		res.Metrics[lane+"p50_us"] = metricValue{Value: ln.p50, Unit: "us", Samples: ln.all.N}
		// What the whole timed phase looked like, host disturbance included.
		out.note(lane+"typical_per_s", metricValue{Value: ln.typicalPerS, Unit: "1/s", Samples: ln.all.N})
		out.note(lane+"all_p50_us", metricValue{Value: ln.all.P50, Unit: "us", Samples: ln.all.N})
		if ln.all.HasP99 {
			out.note(lane+"all_p99_us", metricValue{Value: ln.all.P99, Unit: "us", Samples: ln.all.N})
		}
		res.SliceRates[l], res.SliceP50s[l] = ln.rates, ln.p50s
	}
	if p := out.proc; p.ops > 0 {
		out.note("cpu_us_per_op", metricValue{Value: p.cpuUsPerOp(), Unit: "us", Samples: p.ops})
		out.note("cpu_util", metricValue{Value: p.cpuUtil(), Unit: "ratio"})
	}
	res.Detail = out.detail
	return res, nil
}

func newResult(rc *runCtx, trace int, out *outcome) *result {
	return &result{
		Workload:  rc.workload,
		Trace:     trace,
		Env:       newEnvironment(rc.seed, rc.seconds, rc.sz),
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Problems:  out.problems,
	}
}

func (r *result) fileName() string {
	if r.Trace != 0 {
		return "layers-" + r.Workload + ".json"
	}
	return "result-" + r.Workload + ".json"
}

func (r *result) store(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.fileName()), append(b, '\n'), 0o644)
}

// print writes the human-readable table and then, as the last line, the
// JSON object the driver reads.
func (r *result) print(w io.Writer) {
	spec := specOf(r.Workload)
	fmt.Fprintf(w, "\n%s  seed=%d  timed=%gs  C=%d  GOMAXPROCS=%d  nproc=%d  %s  commit=%s\n",
		r.Workload, r.Env.Seed, r.Env.Seconds, r.Env.Clients, r.Env.GoMaxProcs, r.Env.NumCPU, r.Env.GoVersion, r.Env.Commit)
	fmt.Fprintf(w, "  lane0: %s\n  lane1: %s\n", spec.Lane0, spec.Lane1)
	if r.Trace != 0 {
		r.tables(w)
		printLayers(w, r.Metrics)
	} else {
		printMetrics(w, r.Metrics)
	}
	if len(r.Detail) > 0 {
		fmt.Fprintln(w, "  detail (not gated):")
		printMetrics(w, r.Detail)
	}
	ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(w, "  %-44s %14.6g ratio   (%d of %d operations)\n", "failed_ratio", ratio, r.Failed, r.Attempted)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  PROBLEM:", p)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]mv{}}
	for name, v := range r.Metrics {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings; a NaN here is a benchmark bug
	}
	fmt.Fprintf(w, "%s\n", b)
}

func printMetrics(w io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := ms[n]
		samples := ""
		if v.Samples > 0 {
			samples = fmt.Sprintf("   n=%d", v.Samples)
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-6s%s\n", n, v.Value, v.Unit, samples)
	}
}

func specOf(workload string) workloadSpec {
	for _, w := range workloadSpecs {
		if w.Name == workload {
			return w
		}
	}
	return workloadSpec{Name: workload}
}

// runAll runs every workload in a fresh child process of this binary, so
// heap state and warmed pools do not leak from one workload into the
// next, and merges the children's result files into one.
func runAll(seed uint64, secs float64, trace int, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	merged := map[string]*result{}
	code := 0
	for _, w := range workloadSpecs {
		cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(secs), "-trace", fmt.Sprint(trace), "-out", outDir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
			continue
		}
		r := &result{Workload: w.Name, Trace: trace}
		b, err := os.ReadFile(filepath.Join(outDir, r.fileName()))
		if err == nil {
			err = json.Unmarshal(b, r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.Name, err)
			code = 1
			continue
		}
		merged[w.Name] = r
	}
	name := "results.json"
	if trace != 0 {
		name = "layers.json"
	}
	b, err := json.MarshalIndent(merged, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s\n", filepath.Join(outDir, name))
	return code
}

// gitCommit is the checkout's commit, or "unknown" outside a repository
// (the driver's checkouts are plain directories).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// rusage is the process's user plus system CPU time so far, in seconds,
// and its peak resident set in MB (Linux reports KiB).
func rusage() (cpuS, peakRSSMB float64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024
}
