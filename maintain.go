package wavelethist

import (
	"fmt"

	"wavelethist/internal/wavelet"
)

// MaintainedHistogram incrementally maintains a k-term wavelet histogram
// under record insertions and deletions — the paper's closing-remarks
// open problem, implemented with the shadow-coefficient scheme of Matias,
// Vitter, Wang (VLDB 2000, the paper's [27]): the top-k set plus a larger
// shadow set is updated in O(log u) per update, and the reported top-k
// adapts as coefficients grow or shrink. The tracked values are not
// exact: a coefficient adopted after the seed carries only the updates
// since its adoption (the [27] rule), so values and the reported top-k
// can drift from the data's true transform.
type MaintainedHistogram struct {
	m *wavelet.Maintainer
}

// NewMaintainedHistogram builds the initial tracked set with an exact
// method (H-WTopk over the dataset) and returns a maintainable histogram.
// shadow <= 0 defaults to 4k. Construction pays one distributed build of
// k+shadow coefficients; every subsequent Update is O(log u) local work.
func NewMaintainedHistogram(d *Dataset, k, shadow int, opts Options) (*MaintainedHistogram, error) {
	if d == nil {
		return nil, fmt.Errorf("wavelethist: nil dataset")
	}
	if k < 1 {
		return nil, fmt.Errorf("wavelethist: k must be >= 1")
	}
	if shadow <= 0 {
		shadow = 4 * k
	}
	opts.K = k + shadow
	res, err := Build(d, HWTopk, opts)
	if err != nil {
		return nil, err
	}
	initial := make([]wavelet.Coef, 0, res.Histogram.K())
	for _, c := range res.Histogram.Coefficients() {
		initial = append(initial, wavelet.Coef{Index: c.Index, Value: c.Value})
	}
	return &MaintainedHistogram{
		m: wavelet.NewMaintainer(d.Domain(), initial, k, shadow),
	}, nil
}

// MaintainHistogram starts incremental maintenance from an already-built
// histogram — one produced by any of the seven construction methods or
// loaded from a serialized snapshot — without paying a fresh distributed
// build. The histogram's k' coefficients seed the tracked set; the shadow
// slots fill in as updates touch new coefficients (the [27] adoption
// rule). k <= 0 defaults to the histogram's own size, shadow <= 0 to 4k.
//
// This is the path a serving layer takes to keep a published histogram
// fresh under a live insert/delete stream.
func MaintainHistogram(h *Histogram, k, shadow int) (*MaintainedHistogram, error) {
	if h == nil || h.rep == nil {
		return nil, fmt.Errorf("wavelethist: nil histogram")
	}
	if k <= 0 {
		k = h.K()
	}
	if k < 1 {
		return nil, fmt.Errorf("wavelethist: cannot maintain an empty histogram")
	}
	if shadow <= 0 {
		shadow = 4 * k
	}
	initial := make([]wavelet.Coef, len(h.rep.Coefs))
	copy(initial, h.rep.Coefs)
	return &MaintainedHistogram{
		m: wavelet.NewMaintainer(h.Domain(), initial, k, shadow),
	}, nil
}

// Update applies delta occurrences of key x (negative = deletions).
// O(log u) path coefficients touched, each repaired in the maintained
// retained/shadow partition with O(log(k+shadow)) heap moves — the
// tracked set is never re-heapified.
func (h *MaintainedHistogram) Update(x int64, delta float64) {
	h.m.Update(x, delta)
}

// Histogram returns the current k-term histogram. The result is an
// immutable snapshot, safe to publish to a serving registry; while
// retained membership is unchanged between calls, successive snapshots
// share one error-tree query index and differ only in patched values, so
// interleaved update/query traffic never pays a top-k re-selection.
func (h *MaintainedHistogram) Histogram() *Histogram {
	return &Histogram{rep: h.m.Representation()}
}

// Domain returns the key-domain size u.
func (h *MaintainedHistogram) Domain() int64 { return h.m.Domain() }

// K returns the maintained representation size.
func (h *MaintainedHistogram) K() int { return h.m.K() }

// Shadow returns the shadow-set size (tracked slots beyond k).
func (h *MaintainedHistogram) Shadow() int { return h.m.Shadow() }

// Tracked reports how many coefficients are currently tracked
// (retained + shadow).
func (h *MaintainedHistogram) Tracked() int { return h.m.Tracked() }
