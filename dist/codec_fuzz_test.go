package dist

import (
	"strings"
	"testing"

	"wavelethist/internal/core"
	"wavelethist/internal/mapred"
)

// Fuzz targets for the binary wire codec: arbitrary bytes must never
// panic a decoder, and whatever decodes must re-encode to something that
// decodes to the same value (up to the frame's compression choice).

func FuzzDecodeMapRequest(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeMapRequest(&MapRequest{JobID: "j", Method: "Send-V", Splits: []int{0}}))
	f.Add(EncodeMapRequest(&MapRequest{
		JobID: "j2", Method: "H-WTopk", Round: 3, Rounds: 3,
		Broadcast: []byte{9, 9, 9},
		Dataset:   DatasetSpec{Kind: "keys", Domain: 16, Keys: []int64{1, 2, 3}},
		Splits:    []int{5, 6},
	}))
	// Every field of the params block set, so the fuzzer starts from its
	// full layout rather than only the zero values.
	f.Add(EncodeMapRequest(&MapRequest{
		JobID: "p", Method: "H-WTopk",
		Params: core.Params{
			U: 1 << 12, K: 20, Epsilon: 0.01, SplitSize: 512, Seed: 7,
			CombineEnabled: true, SketchBytes: 4096, SketchDegree: 4,
		},
		Splits: []int{0},
	}))
	seed := EncodeMapRequest(&MapRequest{JobID: "t", Method: "Send-V", Splits: []int{1, 2, 3}})
	for i := 0; i < len(seed); i += 7 {
		mut := append([]byte{}, seed...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeMapRequest(b)
		if err != nil {
			return
		}
		again, err := DecodeMapRequest(EncodeMapRequest(req))
		if err != nil {
			t.Fatalf("re-encode of decoded request failed: %v", err)
		}
		if again.JobID != req.JobID || again.Method != req.Method || len(again.Splits) != len(req.Splits) {
			t.Fatalf("re-encode changed request: %+v vs %+v", again, req)
		}
	})
}

func FuzzDecodeMapResponse(f *testing.F) {
	f.Add([]byte{})
	// Layout 3's pair forms: key deltas of one and two bytes, small
	// integer values, raw floats, and tags.
	parts := []core.SplitPartial{
		{SplitID: 1, RecordsRead: 100, BytesRead: 400, InputBytes: 400, CPUUnits: 12.5, Pairs: []mapred.KV{
			{Key: 3, Val: 1.5}, {Key: 7, Val: 2}, {Key: 9, Val: -0.25, Tag: mapred.TagNull}, {Key: 300, Val: 70000},
		}},
		{SplitID: 2, Pairs: []mapred.KV{{Key: 0, Val: 1}, {Key: 1024, Val: 3, Tag: mapred.TagMarkHigh}, {Key: 1025, Val: -7.5, Tag: mapred.TagMarkLow}}},
	}
	good := EncodeMapResponse(&MapResponse{
		JobID: "j", Partials: core.EncodePartials(parts), Replayed: []int{1}, Cached: []int{2},
	})
	f.Add(good)
	for i := 0; i < len(good); i += 5 {
		mut := append([]byte{}, good...)
		mut[i] ^= 0x10
		f.Add(mut)
	}
	// A failed map task answers with an error and no partials.
	f.Add(EncodeMapResponse(&MapResponse{JobID: "j", Error: "map: split 4 out of range"}))
	// Map responses are never deflated; a deflated one is refused.
	body, err := decodeFrame(EncodeMapResponse(&MapResponse{JobID: "j", Error: strings.Repeat("x", compressMin)}), msgMapResponse)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeFrame(msgMapResponse, body))
	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := DecodeMapResponse(b)
		if err != nil {
			return
		}
		// The partial payload inside is attacker-controlled too; its
		// decoder must be equally robust.
		_, _ = core.DecodePartials(resp.Partials)
		if _, err := DecodeMapResponse(EncodeMapResponse(resp)); err != nil {
			t.Fatalf("re-encode of decoded response failed: %v", err)
		}
	})
}

func FuzzDecodeFrame(f *testing.F) {
	f.Add(EncodeReleaseRequest(&ReleaseRequest{JobID: "j"}))
	f.Add(EncodeHeartbeatRequest(&HeartbeatRequest{ID: "w"}))
	f.Add(EncodeRegisterRequest(&RegisterRequest{ID: "w", Addr: "http://x", Capacity: 1}))
	f.Fuzz(func(t *testing.T, b []byte) {
		// None of the small-message decoders may panic on arbitrary input.
		_, _ = DecodeRegisterRequest(b)
		_, _ = DecodeRegisterResponse(b)
		_, _ = DecodeHeartbeatRequest(b)
		_, _ = DecodeHeartbeatResponse(b)
		_, _ = DecodeReleaseRequest(b)
		_, _ = DecodeReleaseResponse(b)
	})
}

// The query-frame targets additionally hold the decoder to its size
// promise: it never keeps more elements than the frame's own bytes
// could encode.

func FuzzDecodeQueryFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendQueryFrame(nil, nil))
	good := AppendQueryFrame(nil, []QueryGroup{
		{Name: "h0", Queries: []Query{{Op: "point", Key: 5}, {Op: "range", Lo: -3, Hi: 1 << 40}}},
		{Name: "empty", Coalesced: 3},
		{Name: "grid", Queries: []Query{{Op: "sum", X: 1, Y: 2}, {Op: "range", XLo: 1, XHi: 2, YLo: 3, YHi: 4}}},
	})
	f.Add(good)
	for i := 0; i < len(good); i += 3 {
		mut := append([]byte{}, good...)
		mut[i] ^= 0x5a
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		groups, queries, err := DecodeQueryFrame(b, nil, nil)
		if err != nil {
			return
		}
		if len(queries)*minQueryBytes > len(b) || len(groups)*minQueryGroupBytes > len(b) {
			t.Fatalf("%d groups / %d queries decoded from %d bytes", len(groups), len(queries), len(b))
		}
		again, _, err := DecodeQueryFrame(AppendQueryFrame(nil, groups), nil, nil)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !sameQueryGroups(again, groups) {
			t.Fatalf("re-encode changed frame: %+v vs %+v", again, groups)
		}
	})
}

func FuzzDecodeResultFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResultFrame(nil, nil))
	good := AppendResultFrame(nil, []ResultGroup{
		{Status: 200, Version: 9, Results: []QueryResult{{Estimate: 1.5}, {Error: "serve: key 9 outside domain [0, 8)"}}},
		{Status: 404, Error: `no histogram "x"`},
		{Status: 200, Version: 1 << 50},
	})
	f.Add(good)
	for i := 0; i < len(good); i += 3 {
		mut := append([]byte{}, good...)
		mut[i] ^= 0x5a
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		groups, results, err := DecodeResultFrame(b, nil, nil)
		if err != nil {
			return
		}
		if len(results)*minResultBytes > len(b) || len(groups)*minResultGroupBytes > len(b) {
			t.Fatalf("%d groups / %d results decoded from %d bytes", len(groups), len(results), len(b))
		}
		again, _, err := DecodeResultFrame(AppendResultFrame(nil, groups), nil, nil)
		if err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !sameResultGroups(again, groups) {
			t.Fatalf("re-encode changed frame: %+v vs %+v", again, groups)
		}
	})
}
