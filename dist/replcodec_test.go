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
			{Name: "a", Kind: ReplKind1D, Version: 98, Blob: []byte{1, 2, 3}},
			{Name: "b", Kind: ReplKind2D, Version: 99, Blob: bytes.Repeat([]byte{9}, 2048)},
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

// TestReplCodecLegacyFramesDecode: frames built by a pre-epoch peer end
// exactly where the original body ended. The decoders must accept them
// and report epoch 0 ("unknown") — upgrading one side of a replication
// pair must not break the wire.
func TestReplCodecLegacyFramesDecode(t *testing.T) {
	// Legacy request: just the uvarint cursor.
	legacyReq := encodeFrame(msgReplPullRequest, appendUvarint(nil, 42))
	req, err := DecodeReplPullRequest(legacyReq)
	if err != nil {
		t.Fatalf("legacy request: %v", err)
	}
	if req.Since != 42 || req.Epoch != 0 {
		t.Fatalf("legacy request decoded as %+v, want since=42 epoch=0", req)
	}

	// Legacy response: version, names, entries — no trailing epoch/since.
	b := appendUvarint(nil, 9)         // version
	b = appendUvarint(b, 1)            // 1 name
	b = appendStr(b, "a")              //
	b = appendUvarint(b, 1)            // 1 entry
	b = appendStr(b, "a")              //
	b = append(b, ReplKind1D)          //
	b = appendUvarint(b, 9)            // entry version
	b = appendBlob(b, []byte{4, 5, 6}) //
	resp, err := DecodeReplPullResponse(encodeFrame(msgReplPullResponse, b))
	if err != nil {
		t.Fatalf("legacy response: %v", err)
	}
	if resp.Version != 9 || resp.Epoch != 0 || resp.Since != 0 {
		t.Fatalf("legacy response decoded as %+v, want version=9 epoch=0 since=0", resp)
	}
	if len(resp.Entries) != 1 || resp.Entries[0].Name != "a" {
		t.Fatalf("legacy response entries: %+v", resp.Entries)
	}
}
