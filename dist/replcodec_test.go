package dist

import (
	"bytes"
	"testing"
)

// TestReplCodecEpochRoundTrip: both replication frames carry the epoch
// fencing fields through encode/decode unchanged, including the
// response's effective-cursor echo.
func TestReplCodecEpochRoundTrip(t *testing.T) {
	req := &ReplPullRequest{Since: 42, Epoch: 7}
	gotReq, err := DecodeReplPullRequest(EncodeReplPullRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if *gotReq != *req {
		t.Fatalf("request round trip: %+v, want %+v", gotReq, req)
	}

	resp := &ReplPullResponse{
		Version: 99,
		Epoch:   1 << 40,
		Since:   42,
		Names:   []string{"a", "b"},
		Entries: []ReplEntry{
			{Name: "a", Version: 98, Blob: []byte{1, 2, 3}},
			{Name: "b", Version: 99, Blob: bytes.Repeat([]byte{9}, 2048)},
		},
	}
	gotResp, err := DecodeReplPullResponse(EncodeReplPullResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.Version != resp.Version || gotResp.Epoch != resp.Epoch || gotResp.Since != resp.Since {
		t.Fatalf("response header round trip: %+v", gotResp)
	}
	if len(gotResp.Names) != 2 || len(gotResp.Entries) != 2 {
		t.Fatalf("response body round trip: %+v", gotResp)
	}
	if !bytes.Equal(gotResp.Entries[1].Blob, resp.Entries[1].Blob) {
		t.Fatal("entry blob corrupted in round trip")
	}

	// A full snapshot answers Since 0 even when the request cursor was
	// non-zero — the decoder must not confuse "absent" with "zero".
	resp.Since = 0
	gotResp, err = DecodeReplPullResponse(EncodeReplPullResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.Since != 0 {
		t.Fatalf("full-snapshot since = %d, want 0", gotResp.Since)
	}
}

// TestReplCodecPreEpochFramesRejected: a frame that ends where the
// pre-epoch body ended — or anywhere else short of the fencing fields —
// is malformed, not "epoch unknown". Unknown is an explicit epoch 0.
func TestReplCodecPreEpochFramesRejected(t *testing.T) {
	// Request without the epoch: just the uvarint cursor.
	if req, err := DecodeReplPullRequest(encodeFrame(msgReplPullRequest, appendUvarint(nil, 42))); err == nil {
		t.Fatalf("epoch-less request decoded as %+v", req)
	}
	req, err := DecodeReplPullRequest(EncodeReplPullRequest(&ReplPullRequest{Since: 42}))
	if err != nil || req.Since != 42 || req.Epoch != 0 {
		t.Fatalf("explicit epoch 0: %+v, %v", req, err)
	}

	// Response: version, names, entries, then epoch and since. Every
	// proper prefix of the body fails; so does trailing garbage.
	b := appendUvarint(nil, 9)         // version
	b = appendUvarint(b, 1)            // 1 name
	b = appendStr(b, "a")              //
	b = appendUvarint(b, 1)            // 1 entry
	b = appendStr(b, "a")              //
	b = appendUvarint(b, 9)            // entry version
	b = appendBlob(b, []byte{4, 5, 6}) //
	preEpoch := len(b)
	b = appendUvarint(b, 3) // epoch
	b = appendUvarint(b, 0) // since
	resp, err := DecodeReplPullResponse(encodeFrame(msgReplPullResponse, b))
	if err != nil || resp.Version != 9 || resp.Epoch != 3 || len(resp.Entries) != 1 {
		t.Fatalf("full response: %+v, %v", resp, err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := DecodeReplPullResponse(encodeFrame(msgReplPullResponse, b[:n])); err == nil {
			t.Errorf("response truncated to %d of %d bytes (pre-epoch body ends at %d) decoded", n, len(b), preEpoch)
		}
	}
	if _, err := DecodeReplPullResponse(encodeFrame(msgReplPullResponse, append(b, 0))); err == nil {
		t.Error("response with a trailing byte decoded")
	}
}
