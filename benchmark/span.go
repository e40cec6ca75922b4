package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the daemons are a later change). Trace is shared
// by all spans of one request or one build; Parent is the span that
// caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so call sites need no tracing-off branch.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) begin(name string, parent, trace int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores the spans as <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), b, 0o644)
}

type interval struct{ lo, hi int64 }

// covered is the total length of the union of the intervals, each clipped
// to [lo, hi]. It sorts ivs.
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	at := lo
	for _, iv := range ivs {
		if iv.lo < at {
			iv.lo = at
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			total += iv.hi - iv.lo
			at = iv.hi
		}
	}
	return total
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of that interval its child spans cover. Overlapping children
// (parallel parts) are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// printSelf summarises, by name, the spans whose children ran inside them
// — the hand-driven builds and the loop's build pairs: how many, their
// median duration and their median self time. Replayed boundaries are
// linked to the same request one boundary out but run after it, not inside
// it; their self times are differences of medians (chain.print).
func (r *recorder) printSelf(w io.Writer) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	self := selfTimes(spans)
	parent := map[int]bool{}
	for _, s := range spans {
		if s.Parent != 0 && s.Start >= spans[s.Parent-1].Start && s.End <= spans[s.Parent-1].End {
			parent[s.Parent] = true
		}
	}
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	var names []string
	for _, s := range spans {
		if !parent[s.ID] {
			continue
		}
		if durs[s.Name] == nil {
			names = append(names, s.Name)
		}
		durs[s.Name] = append(durs[s.Name], float64(s.End-s.Start)/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
	}
	if len(names) == 0 {
		return
	}
	fmt.Fprintf(w, "  self time of spans with children\n    %-44s %8s %14s %14s\n", "span", "n", "duration us", "self us")
	for _, n := range names {
		fmt.Fprintf(w, "    %-44s %8d %14.1f %14.1f\n", n, len(durs[n]), median(durs[n]), median(selfs[n]))
	}
}
