package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// The regression gate: -compare A.json B.json prints, per workload and
// end-to-end metric, how much worse B is than A relative to the bound
// BENCHMARK.json fixes for that metric, and exits non-zero when any
// metric is out of bounds. A side may be a comma-separated list of files;
// the per-metric median is compared then, which is how two sets of runs
// of one commit are checked against each other.

// benchmarkSpec is the part of BENCHMARK.json the gate needs.
type benchmarkSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var (
		b   []byte
		err error
	)
	for _, c := range candidates {
		if b, err = os.ReadFile(c); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// loadSide reads one side of a comparison: workload -> metric -> the
// values found across the side's files. A file is either one workload's
// result or the merged map `-workload all` writes.
func loadSide(list string) (map[string]map[string][]float64, error) {
	side := map[string]map[string][]float64{}
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		merged := map[string]*result{}
		var one result
		if err := json.Unmarshal(b, &one); err == nil && one.Workload != "" {
			merged[one.Workload] = &one
		} else if err := json.Unmarshal(b, &merged); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for w, r := range merged {
			if side[w] == nil {
				side[w] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				side[w][name] = append(side[w][name], v.Value)
			}
		}
	}
	return side, nil
}

// worsening is how much worse b is than a as a share of a, positive when
// worse, given which direction is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func compareFiles(listA, listB, specPath string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return fail(err)
	}
	a, err := loadSide(listA)
	if err != nil {
		return fail(err)
	}
	b, err := loadSide(listB)
	if err != nil {
		return fail(err)
	}
	return compareSides(spec, a, b, stdout)
}

// compareSides prints one row per workload and metric and returns the
// exit code: 1 when any metric is out of bounds, else 0. A value missing
// on either side, or a zero base, is unresolved, not a pass.
func compareSides(spec *benchmarkSpec, a, b map[string]map[string][]float64, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 || median(va) == 0 {
				fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %6.0f%%  unresolved\n", wl.Name, m.Name, "-", "-", "-", 100*m.Bound)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worsening(ma, mb, m.Better)
			verdict := "ok"
			if worse > m.Bound {
				verdict, code = "OUT OF BOUNDS", 1
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict)
		}
	}
	return code
}
