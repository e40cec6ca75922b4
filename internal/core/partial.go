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
// Partials are produced on workers by MapRoundSplits, shipped over the
// wire with EncodePartials / DecodePartials, and merged on the coordinator
// by RoundPlan.ReduceRound (plan.go).
type SplitPartial struct {
	SplitID int
	// Node is the DataNode holding the split (locality for the cost model).
	Node int
	// Pairs are the split's sorted, combined intermediate pairs.
	Pairs []mapred.KV
	// RecordsRead / BytesRead are the split's input-scan counters.
	RecordsRead int64
	BytesRead   int64
	// InputBytes / CPUUnits feed the cluster cost model.
	InputBytes int64
	CPUUnits   float64
}

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

// EncodePartials serializes partials for the dist wire protocol:
// [count] then per partial [splitID][node][recordsRead][bytesRead]
// [inputBytes][cpuUnits][npairs] and per pair [key][val][src:4][tag:1].
// The output buffer is allocated once at its exact final size (the layout
// is fixed-width), so encoding never re-grows or over-allocates — the hot
// path of every map RPC response.
func EncodePartials(parts []SplitPartial) []byte {
	b := make([]byte, 0, PartialsWireBytes(parts))
	b = mapred.AppendInt64(b, int64(len(parts)))
	for i := range parts {
		b = appendPartial(b, &parts[i])
	}
	return b
}

// PartialsWireBytes returns the exact encoded size of EncodePartials'
// output without encoding.
func PartialsWireBytes(parts []SplitPartial) int {
	n := 8
	for i := range parts {
		n += partialHeaderBytes + len(parts[i].Pairs)*pairWireBytes
	}
	return n
}

const partialHeaderBytes = 56 // 5 int64 + 1 float64 + npairs

func appendPartial(b []byte, part *SplitPartial) []byte {
	b = mapred.AppendInt64(b, int64(part.SplitID))
	b = mapred.AppendInt64(b, int64(part.Node))
	b = mapred.AppendInt64(b, part.RecordsRead)
	b = mapred.AppendInt64(b, part.BytesRead)
	b = mapred.AppendInt64(b, part.InputBytes)
	b = mapred.AppendFloat64(b, part.CPUUnits)
	b = mapred.AppendInt64(b, int64(len(part.Pairs)))
	for _, kv := range part.Pairs {
		b = mapred.AppendInt64(b, kv.Key)
		b = mapred.AppendFloat64(b, kv.Val)
		b = append(b, byte(kv.Src), byte(kv.Src>>8), byte(kv.Src>>16), byte(kv.Src>>24), kv.Tag)
	}
	return b
}

const pairWireBytes = 21 // 8 key + 8 val + 4 src + 1 tag

// DecodePartials is the inverse of EncodePartials, with bounds checks
// against truncated or corrupt payloads.
func DecodePartials(b []byte) ([]SplitPartial, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("core: truncated partials payload")
	}
	n, off := mapred.ReadInt64(b, 0)
	if n < 0 || n > int64(len(b))/8 {
		return nil, fmt.Errorf("core: corrupt partials payload (n=%d)", n)
	}
	parts := make([]SplitPartial, 0, n)
	for i := int64(0); i < n; i++ {
		if len(b)-off < 56 {
			return nil, fmt.Errorf("core: truncated partial %d", i)
		}
		var part SplitPartial
		var v int64
		v, off = mapred.ReadInt64(b, off)
		part.SplitID = int(v)
		v, off = mapred.ReadInt64(b, off)
		part.Node = int(v)
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
			src := uint32(b[off]) | uint32(b[off+1])<<8 | uint32(b[off+2])<<16 | uint32(b[off+3])<<24
			part.Pairs[j].Src = int32(src)
			part.Pairs[j].Tag = b[off+4]
			off += 5
		}
		parts = append(parts, part)
	}
	return parts, nil
}
