package main

import (
	"fmt"
	"time"
)

// laneOut is one lane's end-to-end numbers. perS and p50 come from the
// lane's least disturbed slice (see nSlices); all is every sample of the
// timed phase, reported beside them as detail. Latencies are in us.
type laneOut struct {
	perS, p50   float64
	typicalPerS float64 // the median slice's rate
	all         timing
	rates, p50s []float64 // per slice
}

// newLaneOut picks the best slice. A slice is a fixed share of a serving
// loop's timed phase, or one build of a build workload.
func newLaneOut(rates, p50s []float64, all timing) laneOut {
	l := laneOut{typicalPerS: median(rates), all: all, rates: rates, p50s: p50s}
	for _, r := range rates {
		l.perS = max(l.perS, r)
	}
	for _, p := range p50s {
		if p > 0 && (l.p50 == 0 || p < l.p50) {
			l.p50 = p
		}
	}
	return l
}

// outcome is one loop's result.
type outcome struct {
	lanes     [2]laneOut
	comm, sse float64
	attempted int
	failed    int
	problems  []string
	detail    map[string]metricValue
	proc      procDelta // what the process consumed over warm-up and timed phase
}

// lanesOf turns the closed loop's raw results into lane numbers and
// failure counts.
func (o *outcome) lanesOf(res []laneResult, proc *procMark) {
	ops := 0
	for l := range res {
		ops += res[l].ops
		rates, p50s := res[l].sliceRates(), res[l].sliceP50s() // before summarize sorts the samples
		o.lanes[l] = newLaneOut(rates, p50s, summarize(res[l].lat, 1e3))
		o.attempted += res[l].ops
		if res[l].failed > 0 {
			o.fail(res[l].failed, "lane %d: %d of %d operations failed or returned a wrong answer", l, res[l].failed, res[l].ops)
		}
	}
	o.proc = proc.since(ops)
}

// phases is the warm-up and timed length of a serving loop: warmSeconds of
// warm-up, or half the timed phase when that is shorter (tests).
func phases(secs float64) (warm, timed time.Duration) {
	d := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	return d(min(warmSeconds, secs/2)), d(secs)
}

// note records a number that is reported beside the gated metrics.
func (o *outcome) note(name string, v metricValue) {
	if o.detail == nil {
		o.detail = map[string]metricValue{}
	}
	o.detail[name] = v
}

// fail counts n failed operations and keeps the first few descriptions.
func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}
