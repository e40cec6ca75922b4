package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"
)

// The traced run. End-to-end metrics always come from the untraced run;
// this one says where the time goes. It times calls into each layer's
// public functions from out here (spans inside the daemons are a later
// change), records one span per timed call, runs the workload's own loop
// with client-side spans off and on, and prints every per-layer metric and
// the self-time table.

// layerValues collects one traced run's per-layer metrics by name, the
// layer checks that failed, and the nested call chains to print. A name
// never set is reported as 0: the workload did no work in that layer.
type layerValues struct {
	v        map[string]float64
	problems []string
	chains   []chain
}

type chain struct {
	title string
	rows  []chainRow
	floor float64
}

// set records a metric. A name that is not in the per-layer table would
// be dropped from the report without a word, so it is a failed check.
func (lv *layerValues) set(name string, v float64) {
	if !isLayerMetric[name] {
		lv.problem("layer metric %q is not in the per-layer table", name)
	}
	lv.v[name] = v
}

var isLayerMetric = func() map[string]bool {
	m := make(map[string]bool, len(perLayer))
	for _, spec := range perLayer {
		m[spec.Name] = true
	}
	return m
}()

func (lv *layerValues) problem(format string, args ...any) {
	lv.problems = append(lv.problems, fmt.Sprintf(format, args...))
}

// sampleNs times fn n times, one sample and one root span per call, and
// returns the median ns.
func sampleNs(rec *recorder, name string, n int, fn func(i int)) float64 {
	return replayChain(rec, n, []boundary{{span: name, per: 1, call: fn}})[0]
}

// chunkNs is sampleNs for calls too short to time one at a time: each
// sample is the mean of per consecutive calls, so the clock's own cost
// (two reads, about 100ns) is spread over them.
func chunkNs(rec *recorder, name string, samples, per int, fn func(i int)) float64 {
	return replayChain(rec, samples, []boundary{{span: name, per: per, call: fn}})[0]
}

// boundary is one layer boundary of a nested call chain: call answers the
// k-th request of the replayed stream there. per > 1 times that many
// consecutive requests as one sample, for sub-microsecond calls.
type boundary struct {
	span string
	per  int
	call func(k int)
}

// replayBlock is how many consecutive samples a boundary takes before the
// replay moves on to the next boundary.
const replayBlock = 50

// replayChain answers n requests at every boundary of the chain,
// outermost first, in blocks: replayBlock requests at the first boundary,
// the same requests at the second, and so on, then the next block. Within
// a block a boundary runs back to back, as it does under the workload's
// load — taken one request at a time, every HTTP call would find its
// connection's goroutines parked and pay a wake-up the loop never pays.
// Across blocks the boundaries alternate every few milliseconds, so all
// see the same host conditions and their differences — the self times —
// hold even when the host's speed drifts during the replay. Every span
// names the span of the same request one boundary out as its parent. It
// returns each boundary's median ns per call.
func replayChain(rec *recorder, n int, chain []boundary) []float64 {
	lat := make([][]int64, len(chain))
	for b := range lat {
		lat[b] = make([]int64, n)
	}
	parents := make([]int, n)
	for lo := 0; lo < n; lo += replayBlock {
		clear(parents)
		for b, bd := range chain {
			for i := lo; i < min(lo+replayBlock, n); i++ {
				parents[i] = rec.begin(bd.span, parents[i], i+1)
				t0 := time.Now()
				for j := 0; j < bd.per; j++ {
					bd.call(i*bd.per + j)
				}
				lat[b][i] = int64(time.Since(t0))
				rec.end(parents[i])
			}
		}
	}
	out := make([]float64, len(chain))
	for b, bd := range chain {
		out[b] = summarize(lat[b], 1).P50 / float64(bd.per)
	}
	return out
}

// procDelta is what the process consumed over a loop.
type procDelta struct {
	allocBytes uint64
	gcCycles   uint32
	cpuS       float64
	wallS      float64
	ops        int
}

type procMark struct {
	ms  runtime.MemStats
	cpu float64
	at  time.Time
}

func markProc() *procMark {
	cpu, _ := rusage()
	m := &procMark{cpu: cpu, at: time.Now()}
	runtime.ReadMemStats(&m.ms)
	return m
}

func (m *procMark) since(ops int) procDelta {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	cpu, _ := rusage()
	return procDelta{
		allocBytes: now.TotalAlloc - m.ms.TotalAlloc,
		gcCycles:   now.NumGC - m.ms.NumGC,
		cpuS:       cpu - m.cpu,
		wallS:      time.Since(m.at).Seconds(),
		ops:        ops,
	}
}

func (p procDelta) cpuUsPerOp() float64 { return p.cpuS * 1e6 / float64(p.ops) }

// cpuUtil is the share of GOMAXPROCS cores the process kept busy.
func (p procDelta) cpuUtil() float64 { return p.cpuS / (p.wallS * float64(runtime.GOMAXPROCS(0))) }

func (p procDelta) into(lv *layerValues) {
	if p.ops == 0 || p.wallS == 0 {
		return
	}
	lv.set("proc.alloc_kb_per_op", float64(p.allocBytes)/1024/float64(p.ops))
	lv.set("proc.cpu_us_per_op", p.cpuUsPerOp())
	lv.set("proc.cpu_util", p.cpuUtil())
	lv.set("proc.gc_cycles", float64(p.gcCycles))
	_, rss := rusage()
	lv.set("proc.peak_rss_mb", rss)
}

// chainRow is one boundary of a workload's nested call chain, innermost
// first, with the median time of one request at that boundary.
type chainRow struct {
	layer string
	us    float64
}

// printChain prints the self-time table: a layer's self time is its
// boundary time minus the boundary just inside it. floor is the load
// generator's own cost against a canned-reply handler (0: no HTTP in the
// chain); it is shown beside the outermost rows, which include it.
func (c chain) print(w io.Writer) {
	title, rows, floor := c.title, c.rows, c.floor
	fmt.Fprintf(w, "  self time, %s\n    %-44s %12s %12s\n", title, "boundary (innermost first)", "boundary us", "self us")
	prev := 0.0
	for _, r := range rows {
		fmt.Fprintf(w, "    %-44s %12.3f %12.3f\n", r.layer, r.us, r.us-prev)
		prev = r.us
	}
	if floor > 0 {
		fmt.Fprintf(w, "    %-44s %12.3f   (client + socket + net/http against a canned reply; part of every HTTP row)\n", "client.stub", floor)
	}
}

// runTraced is the -trace 1 run of one workload.
func runTraced(rc *runCtx) (*result, error) {
	impl := impls[rc.workload]
	trc := *rc
	trc.sz.MinPairs = 2 // the traced loops are short; end-to-end numbers do not come from them
	lv := &layerValues{v: map[string]float64{}}
	rec := newRecorder()

	r, err := impl.setup(&trc)
	if err != nil {
		return nil, err
	}
	lv.set("datagen.zipf_mrec_per_s", float64(r.genRecords)/r.genS/1e6)
	err = impl.layers(&trc, r, rec, lv)
	r.close()
	if err != nil {
		return nil, err
	}

	// The workload's own loop, tracing off and then with client-side
	// spans on: the first gives process accounting and tails, the ratio of
	// the two the tracing overhead.
	loopS := rc.seconds / 4
	var outs [2]*outcome
	for i, lr := range []*recorder{nil, rec} {
		if r, err = impl.setup(&trc); err != nil {
			return nil, err
		}
		outs[i], err = impl.loop(&trc, r, loopS, lr)
		r.close()
		if err != nil {
			return nil, err
		}
	}
	off, on := outs[0], outs[1]
	off.proc.into(lv)
	if rate := on.lanes[0].perS + on.lanes[1].perS; rate > 0 {
		lv.set("trace.overhead_ratio", (off.lanes[0].perS+off.lanes[1].perS)/rate)
	}
	for l, ln := range off.lanes {
		if ln.all.HasP99 {
			lv.set(fmt.Sprintf("loop.lane%d_p99_us", l), ln.all.P99)
		}
	}
	// Numbers the loop itself counts under a layer's name.
	for name, v := range off.detail {
		if isLayerMetric[name] {
			lv.set(name, v.Value)
		}
	}
	lv.set("trace.spans", float64(rec.count()))
	if err := rec.write(rc.outDir, rc.workload); err != nil {
		return nil, err
	}

	total := &outcome{attempted: off.attempted + on.attempted, failed: off.failed + on.failed, problems: append(off.problems, on.problems...)}
	for _, p := range lv.problems {
		total.attempted++
		total.fail(1, "%s", p)
	}
	res := newResult(rc, 1, total)
	res.Metrics = map[string]metricValue{}
	for _, spec := range perLayer {
		res.Metrics[spec.Name] = metricValue{Value: lv.v[spec.Name], Unit: spec.Unit}
	}
	res.tables = func(w io.Writer) {
		for _, c := range lv.chains {
			c.print(w)
		}
		rec.printSelf(w)
	}
	return res, nil
}

// printLayers lists, in layer order, the metrics this workload exercised,
// each with the end-to-end metric it was predicted, before any
// measurement, to move. Metrics reading 0 — layers the workload does no
// work in — are counted, not listed.
func printLayers(w io.Writer, ms map[string]metricValue) {
	fmt.Fprintf(w, "  %-44s %14s %-6s    %s\n", "layer metric", "value", "unit", "should move")
	zero := 0
	for _, spec := range perLayer {
		v := ms[spec.Name].Value
		if v == 0 {
			zero++
			continue
		}
		moves := spec.Moves
		if moves == "" {
			moves = "none (a record)"
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-6s -> %s\n", spec.Name, v, spec.Unit, moves)
	}
	fmt.Fprintf(w, "  %d metrics of layers this workload does not exercise read 0\n", zero)
}

// nullWriter is a ResponseWriter that keeps nothing, so a handler can be
// timed and its allocations counted without a recorder's own buffers in
// the numbers.
type nullWriter struct {
	h      http.Header
	status int
}

func newNullWriter() *nullWriter { return &nullWriter{h: http.Header{}} }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }

// handle calls h with a reused request and reports whether it answered
// 200 (a handler that never calls WriteHeader has).
func (w *nullWriter) handle(h http.Handler, req *http.Request) bool {
	w.status = http.StatusOK
	h.ServeHTTP(w, req)
	return w.status == http.StatusOK
}

// postRequest is a reusable POST for handler-level timing; reset rewinds
// its body before each call.
type postRequest struct {
	req  *http.Request
	body bodyReader
	data []byte
}

func newPostRequest(rawURL string, data []byte) *postRequest {
	p := &postRequest{data: data}
	p.req = postLiteral(mustURL(rawURL), &p.body, len(data))
	return p
}

func (p *postRequest) reset() *http.Request {
	p.body.Reset(p.data)
	return p.req
}
