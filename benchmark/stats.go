package main

import (
	"math"
	"sort"
)

// minTailSamples is the fewest samples for which a p99 is reported: ten
// beyond the percentile. Below it the tail of a run is one or two values
// and says nothing.
const minTailSamples = 1000

// timing summarises one operation's latency samples.
type timing struct {
	N      int     `json:"samples"`
	P50    float64 `json:"p50"`
	P99    float64 `json:"p99,omitempty"`
	HasP99 bool    `json:"has_p99"`
}

// summarize reports the median of ns-latencies in the given unit
// (divisor, e.g. 1e3 for us) and the p99 when the sample supports one.
// It sorts lat in place.
func summarize(lat []int64, divisor float64) timing {
	t := timing{N: len(lat)}
	if len(lat) == 0 {
		return t
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	t.P50 = rank(lat, 0.50) / divisor
	if len(lat) >= minTailSamples {
		t.P99, t.HasP99 = rank(lat, 0.99)/divisor, true
	}
	return t
}

// rank is the nearest-rank percentile of a sorted sample; the median of an
// even-sized sample is the mean of the two middle values.
func rank(sorted []int64, p float64) float64 {
	n := len(sorted)
	if p == 0.5 && n%2 == 0 {
		return (float64(sorted[n/2-1]) + float64(sorted[n/2])) / 2
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// median of an unsorted sample; 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
