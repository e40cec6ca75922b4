package dist

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randQuery draws one query shaped like real traffic (1D/2D point/range)
// or like the edges the codec must carry unharmed: unknown op strings,
// negative bounds, the int64 extremes.
func randQuery(rng *rand.Rand) Query {
	bound := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return -rng.Int63n(1 << 20)
		default:
			return rng.Int63n(1 << 24)
		}
	}
	switch rng.Intn(6) {
	case 0:
		return Query{Op: "point", Key: bound()}
	case 1:
		return Query{Op: "point", X: bound(), Y: bound()}
	case 2:
		return Query{Op: "range", Lo: bound(), Hi: bound()}
	case 3:
		return Query{Op: "range", XLo: bound(), XHi: bound(), YLo: bound(), YHi: bound()}
	case 4:
		return Query{Op: []string{"", "sum", "POINT", "très\n<long>"}[rng.Intn(4)], Key: bound(), Hi: bound()}
	default:
		return Query{Op: "range", Key: bound(), X: bound(), Y: bound(), Lo: bound(), Hi: bound(),
			XLo: bound(), XHi: bound(), YLo: bound(), YHi: bound()}
	}
}

func randQueryGroups(rng *rand.Rand) []QueryGroup {
	groups := make([]QueryGroup, rng.Intn(6))
	for i := range groups {
		g := &groups[i]
		g.Name = []string{"h0", "", "bench-17", "a-rather-longer-histogram-name"}[rng.Intn(4)]
		g.Coalesced = rng.Intn(3) * rng.Intn(300)
		if n := rng.Intn(4) * rng.Intn(40); n > 0 { // empty groups are common on purpose
			g.Queries = make([]Query, n)
			for j := range g.Queries {
				g.Queries[j] = randQuery(rng)
			}
		}
	}
	return groups
}

// sameQueryGroups compares decoded groups with their source, treating a
// nil and an empty query list alike (the decoder hands out empty windows).
func sameQueryGroups(a, b []QueryGroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Coalesced != b[i].Coalesced || len(a[i].Queries) != len(b[i].Queries) {
			return false
		}
		for j := range a[i].Queries {
			if a[i].Queries[j] != b[i].Queries[j] {
				return false
			}
		}
	}
	return true
}

func sameResultGroups(a, b []ResultGroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Status != b[i].Status || a[i].Error != b[i].Error || a[i].Version != b[i].Version ||
			len(a[i].Results) != len(b[i].Results) {
			return false
		}
		for j := range a[i].Results {
			x, y := a[i].Results[j], b[i].Results[j]
			if math.Float64bits(x.Estimate) != math.Float64bits(y.Estimate) || x.Error != y.Error {
				return false
			}
		}
	}
	return true
}

// TestQueryFrameRoundTrip: random frames survive encode → decode field
// for field, with the decoder reusing one pair of slices across all of
// them (as the shard's pooled buffers do) and every group's window
// landing on its own queries.
func TestQueryFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var (
		buf     []byte
		groups  []QueryGroup
		queries []Query
	)
	for iter := 0; iter < 300; iter++ {
		want := randQueryGroups(rng)
		buf = AppendQueryFrame(buf[:0], want)
		var err error
		groups, queries, err = DecodeQueryFrame(buf, groups, queries)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !sameQueryGroups(groups, want) {
			t.Fatalf("iter %d: decoded\n%+v\nwant\n%+v", iter, groups, want)
		}
		total := 0
		for _, g := range groups {
			total += len(g.Queries)
		}
		if total != len(queries) {
			t.Fatalf("iter %d: windows cover %d queries, slice holds %d", iter, total, len(queries))
		}
	}
}

// TestQueryFrameAppendsInPlace: the encoder extends the caller's buffer
// after whatever it already holds, and the frame is a complete WDF1
// frame on its own.
func TestQueryFrameAppendsInPlace(t *testing.T) {
	groups := []QueryGroup{{Name: "h", Queries: []Query{{Op: "point", Key: 3}}}}
	alone := AppendQueryFrame(nil, groups)
	prefixed := AppendQueryFrame([]byte("prefix"), groups)
	if string(prefixed[:6]) != "prefix" || !reflect.DeepEqual(prefixed[6:], alone) {
		t.Fatalf("append after a prefix changed the frame: %x vs %x", prefixed, alone)
	}
}

// TestResultFrameRoundTrip: statuses, messages, versions and estimate
// bit patterns (negative zero, denormals, the extremes — no NaN, which
// the estimators never produce and JSON cannot carry) come back exactly.
func TestResultFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	special := []float64{0, math.Copysign(0, -1), 1, -1.5, math.SmallestNonzeroFloat64, math.MaxFloat64,
		-math.MaxFloat64, 1e-7, 1e21, math.Inf(1), 123456.789}
	var (
		buf     []byte
		groups  []ResultGroup
		results []QueryResult
	)
	for iter := 0; iter < 300; iter++ {
		want := make([]ResultGroup, rng.Intn(6))
		for i := range want {
			g := &want[i]
			switch rng.Intn(3) {
			case 0:
				g.Status, g.Error = 404, `no histogram "x"`
			case 1:
				g.Status, g.Error = 400, "empty batch"
			default:
				g.Status, g.Version = 200, rng.Uint64()
				g.Results = make([]QueryResult, rng.Intn(60))
				for j := range g.Results {
					if rng.Intn(5) == 0 {
						g.Results[j].Error = "serve: key 9 outside domain [0, 8)"
					} else if rng.Intn(2) == 0 {
						g.Results[j].Estimate = special[rng.Intn(len(special))]
					} else {
						g.Results[j].Estimate = rng.NormFloat64() * 1e6
					}
				}
			}
		}
		buf = AppendResultFrame(buf[:0], want)
		var err error
		groups, results, err = DecodeResultFrame(buf, groups, results)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !sameResultGroups(groups, want) {
			t.Fatalf("iter %d: decoded\n%+v\nwant\n%+v", iter, groups, want)
		}
	}
}

// TestQueryFramesNeverDeflate: both message types keep the deflate flag
// clear even far past the size at which every other WDF1 message is
// compressed — the hop is latency-bound, so that is fixed per message.
func TestQueryFramesNeverDeflate(t *testing.T) {
	qs := make([]Query, 4096)
	for i := range qs {
		qs[i] = Query{Op: "point", Key: 7} // maximally compressible
	}
	qf := AppendQueryFrame(nil, []QueryGroup{{Name: "h", Queries: qs}})
	rf := AppendResultFrame(nil, []ResultGroup{{Status: 200, Results: make([]QueryResult, 4096)}})
	for name, f := range map[string][]byte{"query": qf, "result": rf} {
		if len(f) < 8*compressMin {
			t.Fatalf("%s frame is only %d bytes; the test needs one over the deflate threshold", name, len(f))
		}
		if f[5] != 0 {
			t.Fatalf("%s frame has flags %#x, want 0", name, f[5])
		}
	}
	// And a deflated one is refused rather than inflated: the decoders'
	// size bound is the frame's own length.
	body, err := decodeFrame(qf, msgQueryBatch)
	if err != nil {
		t.Fatal(err)
	}
	deflated := encodeFrame(msgQueryBatch, body)
	if deflated[5]&flagDeflate == 0 {
		t.Fatal("encodeFrame did not deflate a compressible body")
	}
	if _, _, err := DecodeQueryFrame(deflated, nil, nil); err == nil {
		t.Fatal("decoded a deflated query frame")
	}
}

// TestQueryFrameRejectsCorruptLengths: a length prefix claiming more
// elements than the remaining bytes could hold is refused before
// anything is appended, and each frame type refuses the other's frames.
func TestQueryFrameRejectsCorruptLengths(t *testing.T) {
	body := appendUvarint(nil, 1)   // one group
	body = appendStr(body, "h")     // name
	body = appendUvarint(body, 0)   // coalesced
	body = appendUvarint(body, 1e9) // a billion queries follow, allegedly
	frame := endFrame(append(beginFrame(nil, msgQueryBatch), body...), 0)
	groups, queries, err := DecodeQueryFrame(frame, nil, nil)
	if err == nil {
		t.Fatal("decoded a frame whose query count exceeds its size")
	}
	if cap(queries) != 0 || len(groups) != 0 {
		t.Fatalf("decoder allocated for a corrupt length: cap(queries)=%d groups=%d", cap(queries), len(groups))
	}

	rbody := appendUvarint(nil, 1e9) // a billion groups
	rframe := endFrame(append(beginFrame(nil, msgResultBatch), rbody...), 0)
	if _, _, err := DecodeResultFrame(rframe, nil, nil); err == nil {
		t.Fatal("decoded a frame whose group count exceeds its size")
	}

	good := AppendQueryFrame(nil, []QueryGroup{{Name: "h", Queries: []Query{{Op: "point"}}}})
	if _, _, err := DecodeResultFrame(good, nil, nil); err == nil {
		t.Fatal("result decoder accepted a query frame")
	}
	// Op codes past opRange are reserved, not silently mapped.
	bad := append([]byte{}, good...)
	bad[len(bad)-minQueryBytes] = 9
	if _, _, err := DecodeQueryFrame(bad, nil, nil); err == nil {
		t.Fatal("decoded an unknown op code")
	}
}
