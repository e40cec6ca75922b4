package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"wavelethist/internal/mapred"
)

// SplitPartial is the map side's summary of one input split in one
// round — exactly the pairs that split would shuffle in the simulated
// cluster, which per method family is:
//
//	Send-V:       the split's local frequency vector (x, v_j(x))
//	Send-Coef:    the split's non-zero local wavelet coefficients
//	Basic-S /
//	Improved-S /
//	TwoLevel-S:   the split's (filtered / importance-sampled) samples
//	Send-Sketch:  the split's non-zero GCS sketch entries
//	H-WTopk:      per round, the coefficients the split ships that round
//
// plus what its map task measured. Partials are produced on workers by
// MapRoundSplits, shipped over the wire with EncodePartials /
// DecodePartials, and merged on the coordinator by RoundPlan.Run or
// ReduceRound (plan.go).
type SplitPartial = mapred.Partial

// forEachSplit fans fn(i) for i in [0, n) out across a bounded goroutine
// pool: GOMAXPROCS workers, context-cancellable, first error wins and
// cancels the siblings. Callers write results into position-indexed
// slots, so merge order is deterministic regardless of scheduling.
func forEachSplit(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || fctx.Err() != nil {
					return
				}
				if err := fn(fctx, i); err != nil {
					errOnce.Do(func() { firstEr = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return firstEr
	}
	return ctx.Err()
}

// ---------- wire encoding ----------

// partialsVersion opens every partials payload a worker frame carries, as
// 8 raw bytes. Layout 1 began with the partial count, which is never this
// large, so an old payload is refused instead of misread; an old decoder
// reads this word as an impossible count.
const partialsVersion uint64 = 0x5750_0000_0000_0003 // "WP", layout 3

// Layout 3's smallest encodings, for bounding counts before allocating:
// a partial header is five one-byte varints and the 8 CPUUnits bytes, a
// pair a one-byte key delta, its tag and a one-byte value.
const (
	minPartialBytes = 13
	minPairBytes    = 3
	// maxPairBytes is a pair's largest encoding: a 10-byte key delta,
	// the tag, and a raw value behind its 0 marker.
	maxPairBytes = 20
)

// EncodePartials serializes partials for the dist wire protocol (layout
// 3): [version][count] then per partial [splitID][recordsRead][bytesRead]
// [inputBytes][cpuUnits][npairs] and per pair [key delta][tag:1][value].
// Integers are zig-zag varints except cpuUnits (8 raw bytes); a pair's key
// is its difference from the previous key in its partial (from 0, with
// wraparound), so sorted keys cost a byte or two; a value v that is an
// integer in [0, 2^53) and not -0 is uvarint(v+1), any other float a 0
// byte and its 8 raw bytes. A pair's split is its partial's, and a split's
// node is the receiver's to know. The buffer is allocated once at the
// payload's largest possible size, so encoding never re-grows.
func EncodePartials(parts []SplitPartial) []byte {
	n := 8 + binary.MaxVarintLen64
	for i := range parts {
		n += 5*binary.MaxVarintLen64 + 8 + len(parts[i].Pairs)*maxPairBytes
	}
	b := make([]byte, 0, n)
	b = mapred.AppendUint64(b, partialsVersion)
	b = binary.AppendVarint(b, int64(len(parts)))
	for i := range parts {
		b = appendPartial(b, &parts[i])
	}
	return b
}

func appendPartial(b []byte, part *SplitPartial) []byte {
	b = binary.AppendVarint(b, int64(part.SplitID))
	b = binary.AppendVarint(b, part.RecordsRead)
	b = binary.AppendVarint(b, part.BytesRead)
	b = binary.AppendVarint(b, part.InputBytes)
	b = mapred.AppendFloat64(b, part.CPUUnits)
	b = binary.AppendVarint(b, int64(len(part.Pairs)))
	var prev int64
	for _, kv := range part.Pairs {
		b = binary.AppendVarint(b, kv.Key-prev)
		prev = kv.Key
		b = append(b, kv.Tag)
		if v := kv.Val; v >= 0 && v < 1<<53 && float64(uint64(v)) == v && !math.Signbit(v) {
			b = binary.AppendUvarint(b, uint64(v)+1)
		} else {
			b = mapred.AppendFloat64(append(b, 0), v)
		}
	}
	return b
}

// DecodePartials is the inverse of EncodePartials, with bounds checks
// against truncated or corrupt payloads and a version check against
// payloads of another layout.
func DecodePartials(b []byte) ([]SplitPartial, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("core: truncated partials payload")
	}
	if v, _ := mapred.ReadUint64(b, 0); v != partialsVersion {
		return nil, fmt.Errorf("core: partials payload has layout word %#x, want %#x", v, partialsVersion)
	}
	r := partialReader{b: b, off: 8}
	n := r.varint()
	if r.err != nil || n < 0 || n > int64(len(b)-r.off)/minPartialBytes {
		return nil, fmt.Errorf("core: corrupt partials payload (n=%d)", n)
	}
	parts := make([]SplitPartial, n)
	for i := range parts {
		part := &parts[i]
		part.SplitID = int(r.varint())
		part.RecordsRead = r.varint()
		part.BytesRead = r.varint()
		part.InputBytes = r.varint()
		part.CPUUnits = r.float()
		np := r.varint()
		if r.err != nil {
			return nil, fmt.Errorf("core: truncated partial %d", i)
		}
		if np < 0 || np > int64(len(b)-r.off)/minPairBytes {
			return nil, fmt.Errorf("core: corrupt partial %d (pairs=%d)", i, np)
		}
		part.Pairs = make([]mapred.KV, np)
		var key int64
		for j := range part.Pairs {
			key += r.varint()
			kv := &part.Pairs[j]
			kv.Key = key
			kv.Tag = r.tag()
			kv.Val = r.value()
		}
		if r.err != nil {
			return nil, fmt.Errorf("core: partial %d: %w", i, r.err)
		}
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes after %d partials", len(b)-r.off, n)
	}
	return parts, nil
}

// partialReader reads layout 3's fields; the first failure latches err
// and every later read returns zero.
type partialReader struct {
	b   []byte
	off int
	err error
}

func (r *partialReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated or corrupt %s at offset %d", what, r.off)
	}
	r.off = len(r.b)
}

func (r *partialReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.off += n
	return v
}

// varint reads a zig-zag signed varint (binary.AppendVarint's encoding).
func (r *partialReader) varint() int64 {
	v := r.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

func (r *partialReader) tag() byte {
	if r.off >= len(r.b) {
		r.fail("tag")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

func (r *partialReader) float() float64 {
	if len(r.b)-r.off < 8 {
		r.fail("float")
		return 0
	}
	v, _ := mapred.ReadFloat64(r.b, r.off)
	r.off += 8
	return v
}

// value reads a pair's value: uvarint(v+1) for a small integer, else a 0
// and the raw float.
func (r *partialReader) value() float64 {
	switch u := r.uvarint(); {
	case u == 0:
		return r.float()
	case u > 1<<53:
		r.fail("value")
		return 0
	default:
		return float64(u - 1)
	}
}
