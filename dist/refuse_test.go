package dist

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"wavelethist/internal/core"
	"wavelethist/internal/mapred"
)

// corruptingTransport rewrites map responses on their way back: corrupt
// edits one response's decoded partials, which are re-encoded in place of
// the worker's. It stands for a worker whose frames decode but whose
// partials are wrong. left counts the responses still to corrupt (< 0:
// every one); a response corrupt cannot edit (no pairs) passes unchanged.
type corruptingTransport struct {
	Transport
	corrupt func(parts []core.SplitPartial) ([]byte, bool)

	mu        sync.Mutex
	left      int
	corrupted int
}

func (c *corruptingTransport) MapSplits(ctx context.Context, addr string, req *MapRequest) (*MapResponse, int64, int64, error) {
	resp, reqB, respB, err := c.Transport.MapSplits(ctx, addr, req)
	if err != nil || resp.Error != "" {
		return resp, reqB, respB, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left == 0 {
		return resp, reqB, respB, nil
	}
	parts, err := core.DecodePartials(resp.Partials)
	if err != nil {
		return nil, reqB, respB, err
	}
	payload, ok := c.corrupt(parts)
	if !ok {
		return resp, reqB, respB, nil
	}
	c.left--
	c.corrupted++
	out := *resp
	out.Partials = payload
	return &out, reqB, respB, nil
}

// editLastPair applies edit to the last pair of the first partial that
// has pairs (a key raised there keeps key order), and re-encodes.
func editLastPair(edit func(kv *mapred.KV)) func([]core.SplitPartial) ([]byte, bool) {
	return func(parts []core.SplitPartial) ([]byte, bool) {
		for i := range parts {
			if len(parts[i].Pairs) > 0 {
				edit(&parts[i].Pairs[len(parts[i].Pairs)-1])
				return core.EncodePartials(parts), true
			}
		}
		return nil, false
	}
}

// oldLayoutPartials encodes partials in the layout before the version
// word: [count], per partial [splitID][node][recordsRead][bytesRead]
// [inputBytes][cpuUnits][npairs], per pair [key][val][src:4][tag:1].
func oldLayoutPartials(parts []core.SplitPartial) []byte {
	b := mapred.AppendInt64(nil, int64(len(parts)))
	for _, part := range parts {
		b = mapred.AppendInt64(b, int64(part.SplitID))
		b = mapred.AppendInt64(b, 0)
		b = mapred.AppendInt64(b, part.RecordsRead)
		b = mapred.AppendInt64(b, part.BytesRead)
		b = mapred.AppendInt64(b, part.InputBytes)
		b = mapred.AppendFloat64(b, part.CPUUnits)
		b = mapred.AppendInt64(b, int64(len(part.Pairs)))
		for _, kv := range part.Pairs {
			b = mapred.AppendInt64(b, kv.Key)
			b = mapred.AppendFloat64(b, kv.Val)
			id := uint32(part.SplitID)
			b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24), kv.Tag)
		}
	}
	return b
}

// layout2Partials encodes partials in layout 2, the fixed-width layout
// before varints: [version 2][count], per partial [splitID][recordsRead]
// [bytesRead][inputBytes][cpuUnits][npairs], per pair [key][val][tag:1].
func layout2Partials(parts []core.SplitPartial) []byte {
	b := mapred.AppendUint64(nil, 0x5750_0000_0000_0002)
	b = mapred.AppendInt64(b, int64(len(parts)))
	for _, part := range parts {
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
	}
	return b
}

func newCorruptingCluster(n int, corrupt func([]core.SplitPartial) ([]byte, bool), left int) (*Coordinator, *corruptingTransport) {
	lb := NewLoopback()
	ct := &corruptingTransport{Transport: lb, corrupt: corrupt, left: left}
	c := NewCoordinator(ct, Config{})
	for i := 0; i < n; i++ {
		w := NewWorker(fmt.Sprintf("cw-%d", i), 2)
		c.Register(w.ID(), lb.Add(w), w.Capacity())
	}
	return c, ct
}

// TestFleetRefusedPartialReassigned: one map response whose partial the
// plan refuses on arrival — a key at u, a NaN value, or the layout before
// the version word — is a worker fault like a frame that does not decode:
// its splits are re-assigned, counted in Retries and WorkerFailures, and
// never delivered twice, so an H-WTopk build lands on the coefficients of
// a clean run.
func TestFleetRefusedPartialReassigned(t *testing.T) {
	spec, file := smallZipf(t)
	p := core.Params{U: 1 << 10, K: 25, Seed: 7}
	ctx := context.Background()
	ref, _ := NewLoopbackCluster(3, 2, Config{})
	want, wantStats, err := ref.Build(ctx, spec, file, core.MethodHWTopk, p)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func([]core.SplitPartial) ([]byte, bool){
		"key=u":   editLastPair(func(kv *mapred.KV) { kv.Key = int64(p.U) }),
		"val=NaN": editLastPair(func(kv *mapred.KV) { kv.Val = math.NaN() }),
		"old layout": func(parts []core.SplitPartial) ([]byte, bool) {
			return oldLayoutPartials(parts), true
		},
	} {
		t.Run(name, func(t *testing.T) {
			c, ct := newCorruptingCluster(3, corrupt, 1)
			got, stats, err := c.Build(ctx, spec, file, core.MethodHWTopk, p)
			if err != nil {
				t.Fatal(err)
			}
			if ct.corrupted != 1 {
				t.Fatalf("corrupted %d responses, want 1", ct.corrupted)
			}
			if stats.Retries < 1 || stats.WorkerFailures < 1 {
				t.Errorf("retries %d, worker failures %d; want both ≥ 1", stats.Retries, stats.WorkerFailures)
			}
			if len(got.Rep.Coefs) != len(want.Rep.Coefs) {
				t.Fatalf("coef count: got %d, want %d", len(got.Rep.Coefs), len(want.Rep.Coefs))
			}
			for i := range want.Rep.Coefs {
				if got.Rep.Coefs[i] != want.Rep.Coefs[i] {
					t.Fatalf("coef %d: got %+v, want %+v", i, got.Rep.Coefs[i], want.Rep.Coefs[i])
				}
			}
			if stats.CandidateSetSize != wantStats.CandidateSetSize {
				t.Errorf("candidate set: got %d, want %d", stats.CandidateSetSize, wantStats.CandidateSetSize)
			}
		})
	}
}

// TestFleetCorruptWorkerFailsBuild: a worker whose every response holds a
// partial the plan refuses fails the build — whichever limit runs out
// first, the split's retries or the worker's failures — with an error
// that names the split and the pair.
func TestFleetCorruptWorkerFailsBuild(t *testing.T) {
	spec, file := smallZipf(t)
	p := core.Params{U: 1 << 10, K: 25, Seed: 7}
	for _, method := range []string{core.MethodSendV, core.MethodHWTopk} {
		c, _ := newCorruptingCluster(1, editLastPair(func(kv *mapred.KV) { kv.Key = int64(p.U) }), -1)
		_, _, err := c.Build(context.Background(), spec, file, method, p)
		if err == nil {
			t.Fatalf("%s: a worker corrupting every response did not fail the build", method)
		}
		for _, want := range []string{"split ", "pair ", fmt.Sprintf("key %d", p.U)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want it to name the split and the pair (%q)", method, err, want)
			}
		}
	}
}

// TestOldLayoutPartialsRefused: a partials payload of the layout before
// the version word, or of layout 2, inside a map-response frame is a
// decode error, never pairs.
func TestOldLayoutPartialsRefused(t *testing.T) {
	_, file := smallZipf(t)
	p := core.Params{U: 1 << 10, K: 10, Seed: 3}
	parts, err := core.MapSplits(context.Background(), file, core.MethodSendV, p, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{"unversioned": oldLayoutPartials(parts), "layout 2": layout2Partials(parts)} {
		resp, err := DecodeMapResponse(EncodeMapResponse(&MapResponse{JobID: "old", Partials: payload}))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := core.DecodePartials(resp.Partials); err == nil {
			t.Errorf("a %s map response decoded into %d partials", name, len(got))
		}
	}
}
