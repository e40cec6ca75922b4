package core

import (
	"context"
	"fmt"
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
// pool: p.Parallelism workers (0 = GOMAXPROCS), context-cancellable, first
// error wins and cancels the siblings. Callers write results into
// position-indexed slots, so merge order is deterministic regardless of
// scheduling.
func forEachSplit(ctx context.Context, p Params, n int, fn func(ctx context.Context, i int) error) error {
	workers := p.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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

// partialsVersion opens every partials payload a worker frame carries.
// The layout before it began with the partial count, which is never this
// large, so an old payload is refused instead of misread; an old decoder
// reads this word as an impossible count.
const partialsVersion uint64 = 0x5750_0000_0000_0002 // "WP", layout 2

// EncodePartials serializes partials for the dist wire protocol:
// [version][count] then per partial [splitID][recordsRead][bytesRead]
// [inputBytes][cpuUnits][npairs] and per pair [key][val][tag:1]. A pair's
// split is its partial's, and a split's node is the receiver's to know.
// The output buffer is allocated once at its exact final size (the layout
// is fixed-width), so encoding never re-grows or over-allocates — the hot
// path of every map RPC response.
func EncodePartials(parts []SplitPartial) []byte {
	b := make([]byte, 0, PartialsWireBytes(parts))
	b = mapred.AppendUint64(b, partialsVersion)
	b = mapred.AppendInt64(b, int64(len(parts)))
	for i := range parts {
		b = appendPartial(b, &parts[i])
	}
	return b
}

// PartialsWireBytes returns the exact encoded size of EncodePartials'
// output without encoding.
func PartialsWireBytes(parts []SplitPartial) int {
	n := 16
	for i := range parts {
		n += partialHeaderBytes + len(parts[i].Pairs)*pairWireBytes
	}
	return n
}

const partialHeaderBytes = 48 // 4 int64 + 1 float64 + npairs

func appendPartial(b []byte, part *SplitPartial) []byte {
	b = mapred.AppendInt64(b, int64(part.SplitID))
	b = mapred.AppendInt64(b, part.RecordsRead)
	b = mapred.AppendInt64(b, part.BytesRead)
	b = mapred.AppendInt64(b, part.InputBytes)
	b = mapred.AppendFloat64(b, part.CPUUnits)
	b = mapred.AppendInt64(b, int64(len(part.Pairs)))
	for _, kv := range part.Pairs {
		b = mapred.AppendInt64(b, kv.Key)
		b = mapred.AppendFloat64(b, kv.Val)
		b = append(b, kv.Tag)
	}
	return b
}

const pairWireBytes = 17 // 8 key + 8 val + 1 tag

// DecodePartials is the inverse of EncodePartials, with bounds checks
// against truncated or corrupt payloads and a version check against
// payloads of another layout.
func DecodePartials(b []byte) ([]SplitPartial, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("core: truncated partials payload")
	}
	if v, _ := mapred.ReadUint64(b, 0); v != partialsVersion {
		return nil, fmt.Errorf("core: partials payload has layout word %#x, want %#x", v, partialsVersion)
	}
	n, off := mapred.ReadInt64(b, 8)
	if n < 0 || n > int64(len(b))/partialHeaderBytes {
		return nil, fmt.Errorf("core: corrupt partials payload (n=%d)", n)
	}
	parts := make([]SplitPartial, 0, n)
	for i := int64(0); i < n; i++ {
		if len(b)-off < partialHeaderBytes {
			return nil, fmt.Errorf("core: truncated partial %d", i)
		}
		var part SplitPartial
		var v int64
		v, off = mapred.ReadInt64(b, off)
		part.SplitID = int(v)
		part.RecordsRead, off = mapred.ReadInt64(b, off)
		part.BytesRead, off = mapred.ReadInt64(b, off)
		part.InputBytes, off = mapred.ReadInt64(b, off)
		part.CPUUnits, off = mapred.ReadFloat64(b, off)
		var np int64
		np, off = mapred.ReadInt64(b, off)
		if np < 0 || np > int64(len(b)-off)/pairWireBytes {
			return nil, fmt.Errorf("core: corrupt partial %d (pairs=%d)", i, np)
		}
		part.Pairs = make([]mapred.KV, np)
		for j := range part.Pairs {
			part.Pairs[j].Key, off = mapred.ReadInt64(b, off)
			part.Pairs[j].Val, off = mapred.ReadFloat64(b, off)
			part.Pairs[j].Tag = b[off]
			off++
		}
		parts = append(parts, part)
	}
	return parts, nil
}
