package core

import (
	"slices"
	"sync"

	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// splitScratch is a map task's working memory: the split's raw keys
// (aggregated in place into distinct keys with counts), the radix sort's
// second buffer, and where the map side transforms, the local
// coefficients. It dies with the task — 16 B per record for
// keys and tmp, ~16·|v_j|·log u for coefficients — so tasks share a pool.
type splitScratch struct {
	keys, tmp []int64
	counts    []float64
	coefs     []wavelet.Coef
}

var splitScratchPool = sync.Pool{New: func() any { return new(splitScratch) }}

// splitCollector is the record side of every mapper that needs its
// split's frequency vector v_j: Map validates and keeps the keys, and
// Close starts with aggregate. Mappers embed it and add only their Close.
type splitCollector struct {
	domain int64 // key-domain bound (u in 1D, u² packed in 2D)
	sc     *splitScratch
}

func (c *splitCollector) Setup(*mapred.TaskContext) error {
	c.sc = splitScratchPool.Get().(*splitScratch)
	c.sc.keys = c.sc.keys[:0]
	return nil
}

func (c *splitCollector) Map(_ *mapred.TaskContext, keys []int64, _ *mapred.Emitter) error {
	for _, k := range keys {
		if err := checkDomain(k, c.domain); err != nil {
			return err
		}
	}
	c.sc.keys = append(c.sc.keys, keys...)
	return nil
}

// aggregate sorts the collected keys and run-length encodes them in
// place: v_j as ascending distinct keys with their counts. One int64 per
// record, sorted and scanned, beats one map entry per distinct key at
// split sizes. The slices live in sc; the caller Puts it back when done.
func (c *splitCollector) aggregate() (sc *splitScratch, keys []int64, counts []float64) {
	sc, c.sc = c.sc, nil
	sc.keys, sc.tmp = sortKeys(sc.keys, sc.tmp)
	keys, counts = sc.keys[:0], sc.counts[:0]
	for lo := 0; lo < len(sc.keys); {
		hi := lo + 1
		for hi < len(sc.keys) && sc.keys[hi] == sc.keys[lo] {
			hi++
		}
		keys = append(keys, sc.keys[lo])
		counts = append(counts, float64(hi-lo))
		lo = hi
	}
	sc.counts = counts
	return sc, keys, counts
}

const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
	// radixMin: below it a pass's fixed cost (clearing and prefix-summing
	// 2^11 buckets) loses to pdqsort; two passes break even near 400 keys.
	radixMin = 512
)

// sortKeys sorts non-negative keys ascending and returns the sorted slice
// and the spare one (keys and tmp, swapped when the pass count is odd).
// It is an LSD radix sort on 11-bit digits over only the bits the largest
// key uses — two passes for u = 2^20 — because a comparison sort of a
// split's keys costs as much as the hash map it replaced.
func sortKeys(keys, tmp []int64) (sorted, spare []int64) {
	if len(keys) < radixMin {
		slices.Sort(keys)
		return keys, tmp
	}
	// One read finds the bits in use and counts the two low digits, all
	// a 2^22 domain has; a wider key's higher digits are counted per pass.
	var (
		used  int64
		count [2][radixMask + 1]int // per digit value: its count, then its next output slot
	)
	for _, k := range keys {
		used |= k
		count[0][k&radixMask]++
		count[1][(k>>radixBits)&radixMask]++
	}
	tmp = slices.Grow(tmp[:0], len(keys))[:len(keys)]
	for pass, shift := 0, 0; used>>shift != 0; pass, shift = pass+1, shift+radixBits {
		next := &count[min(pass, 1)]
		if pass > 1 {
			*next = [radixMask + 1]int{}
			for _, k := range keys {
				next[(k>>shift)&radixMask]++
			}
		}
		pos := 0
		for d, n := range next {
			next[d], pos = pos, pos+n
		}
		for _, k := range keys {
			d := (k >> shift) & radixMask
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys, tmp
}
