package dist

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"wavelethist/internal/core"
	"wavelethist/internal/mapred"
)

func testMapRequest() *MapRequest {
	return &MapRequest{
		JobID:  "build-abc-7",
		Method: "H-WTopk",
		Params: core.Params{
			U: 1 << 14, K: 30, Epsilon: 0.001, SplitSize: 4096, Seed: 42,
			CombineEnabled: true, SketchBytes: 12345, SketchDegree: 8,
		},
		Dataset: DatasetSpec{
			Kind: "keys", Records: 9, Domain: 1 << 14, Alpha: 1.1, RecordSize: 4,
			ChunkSize: 1 << 20, Nodes: 15, Seed: 7, ClientBits: 10, ObjectBits: 10,
			Keys: []int64{0, 5, 16383, 77, 77, 1},
		},
		Splits:    []int{3, 0, 17},
		Round:     2,
		Rounds:    3,
		Broadcast: []byte{1, 2, 3, 255, 0, 9},
	}
}

func testMapResponse() *MapResponse {
	parts := []core.SplitPartial{
		{
			SplitID: 4, RecordsRead: 1000, BytesRead: 4000,
			InputBytes: 4096, CPUUnits: 1234.5,
			Pairs: []mapred.KV{
				{Key: 1, Val: 2.5, Tag: 1},
				{Key: 99, Val: -0.25, Tag: 0},
			},
		},
		{SplitID: 5},
	}
	return &MapResponse{
		JobID:    "build-abc-7",
		Partials: core.EncodePartials(parts),
		Replayed: []int{5},
		Cached:   []int{4},
		Error:    "",
	}
}

// TestCodecRoundTrip: every message type survives encode → decode
// unchanged.
func TestCodecRoundTrip(t *testing.T) {
	req := testMapRequest()
	gotReq, err := DecodeMapRequest(EncodeMapRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Errorf("map request round trip:\n got %+v\nwant %+v", gotReq, req)
	}

	resp := testMapResponse()
	gotResp, err := DecodeMapResponse(EncodeMapResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Errorf("map response round trip:\n got %+v\nwant %+v", gotResp, resp)
	}
	// The partial payload itself must still decode.
	if _, err := core.DecodePartials(gotResp.Partials); err != nil {
		t.Errorf("partials after round trip: %v", err)
	}

	reg := &RegisterRequest{ID: "w0", Addr: "http://h:1", Capacity: 4}
	if got, err := DecodeRegisterRequest(EncodeRegisterRequest(reg)); err != nil || !reflect.DeepEqual(reg, got) {
		t.Errorf("register request round trip: %+v, %v", got, err)
	}
	rr := &RegisterResponse{OK: true, HeartbeatMillis: 3000}
	if got, err := DecodeRegisterResponse(EncodeRegisterResponse(rr)); err != nil || !reflect.DeepEqual(rr, got) {
		t.Errorf("register response round trip: %+v, %v", got, err)
	}
	hb := &HeartbeatRequest{ID: "w0"}
	if got, err := DecodeHeartbeatRequest(EncodeHeartbeatRequest(hb)); err != nil || !reflect.DeepEqual(hb, got) {
		t.Errorf("heartbeat request round trip: %+v, %v", got, err)
	}
	hr := &HeartbeatResponse{OK: true}
	if got, err := DecodeHeartbeatResponse(EncodeHeartbeatResponse(hr)); err != nil || !reflect.DeepEqual(hr, got) {
		t.Errorf("heartbeat response round trip: %+v, %v", got, err)
	}
	rel := &ReleaseRequest{JobID: "j1"}
	if got, err := DecodeReleaseRequest(EncodeReleaseRequest(rel)); err != nil || !reflect.DeepEqual(rel, got) {
		t.Errorf("release request round trip: %+v, %v", got, err)
	}
	rlr := &ReleaseResponse{OK: true, Released: true}
	if got, err := DecodeReleaseResponse(EncodeReleaseResponse(rlr)); err != nil || !reflect.DeepEqual(rlr, got) {
		t.Errorf("release response round trip: %+v, %v", got, err)
	}
}

// TestFrameTypeBytes pins every frame type's byte: a frame's type is its
// wire identity, so a daemon of one build must read a frame of another.
// A retired type keeps its slot: 10 was the pull response whose entries
// spelled their kind out in a byte, 11 the coordinator checkpoint. A pull
// response from an older build, type 10, is refused by its type.
func TestFrameTypeBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  byte
		want byte
	}{
		{"msgMapRequest", msgMapRequest, 1},
		{"msgMapResponse", msgMapResponse, 2},
		{"msgRegisterRequest", msgRegisterRequest, 3},
		{"msgRegisterResponse", msgRegisterResponse, 4},
		{"msgHeartbeatRequest", msgHeartbeatRequest, 5},
		{"msgHeartbeatResponse", msgHeartbeatResponse, 6},
		{"msgReleaseRequest", msgReleaseRequest, 7},
		{"msgReleaseResponse", msgReleaseResponse, 8},
		{"msgReplPullRequest", msgReplPullRequest, 9},
		{"msgQueryBatch", msgQueryBatch, 12},
		{"msgResultBatch", msgResultBatch, 13},
		{"msgReplPullResponse", msgReplPullResponse, 14},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}

	// An older build's pull response: one entry with its kind byte (1,
	// a WHST blob) between the name and the version.
	b := appendUvarint(nil, 9)
	b = appendUvarint(b, 1)
	b = appendStr(b, "a")
	b = appendUvarint(b, 1)
	b = appendStr(b, "a")
	b = append(b, 1)
	b = appendUvarint(b, 9)
	b = appendBlob(b, []byte("TSHW"))
	b = appendUvarint(b, 3)
	b = appendUvarint(b, 0)
	const retired = 10
	if resp, err := DecodeReplPullResponse(encodeFrame(retired, b)); err == nil || !strings.Contains(err.Error(), "message type 10") {
		t.Errorf("type-10 pull response: %+v, %v; want refused by type", resp, err)
	}
}

// bigReplPull is a replication pull response whose histogram blob is
// large and repetitive: a frame type that is still deflated.
func bigReplPull(n int) *ReplPullResponse {
	blob := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		blob = binary.LittleEndian.AppendUint64(blob, uint64(i%7))
	}
	return &ReplPullResponse{Version: 9, Names: []string{"big"}, Entries: []ReplEntry{{Name: "big", Version: 9, Blob: blob}}}
}

// TestCodecCompression: a large, repetitive replication pull response is
// framed compressed and still round-trips; the frame is smaller than the
// raw body. A map response of the same bulk is never deflated, and a
// deflated one is refused.
func TestCodecCompression(t *testing.T) {
	resp := bigReplPull(10000)
	frame := EncodeReplPullResponse(resp)
	if blob := resp.Entries[0].Blob; len(frame) >= len(blob) {
		t.Errorf("frame %d bytes not smaller than raw blob %d", len(frame), len(blob))
	}
	if frame[5]&flagDeflate == 0 {
		t.Error("large frame not compressed")
	}
	got, err := DecodeReplPullResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Error("compressed round trip corrupted the response")
	}

	var pairs []mapred.KV
	for i := 0; i < 10000; i++ {
		pairs = append(pairs, mapred.KV{Key: int64(i), Val: float64(i % 7)})
	}
	mframe := EncodeMapResponse(&MapResponse{
		JobID:    "big",
		Partials: core.EncodePartials([]core.SplitPartial{{SplitID: 3, Pairs: pairs}}),
	})
	if mframe[5] != 0 {
		t.Fatalf("map response frame has flags %#x, want 0", mframe[5])
	}
	body, err := decodeFrame(mframe, msgMapResponse)
	if err != nil {
		t.Fatal(err)
	}
	deflated := encodeFrame(msgMapResponse, body)
	if deflated[5]&flagDeflate == 0 {
		t.Fatal("encodeFrame did not deflate a compressible map response body")
	}
	if _, err := DecodeMapResponse(deflated); err == nil || !strings.Contains(err.Error(), "never deflated") {
		t.Errorf("a deflated map response: err = %v, want a refusal", err)
	}
}

// TestCodecFrameErrors: truncated frames, bad magic/type/flags, and
// length-prefix lies are all rejected with errors, never panics.
func TestCodecFrameErrors(t *testing.T) {
	frame := EncodeMapRequest(testMapRequest())

	// Truncations at every prefix length.
	for n := 0; n < len(frame); n += 1 + n/8 {
		if _, err := DecodeMapRequest(frame[:n]); err == nil {
			t.Errorf("truncated frame (%d of %d bytes) accepted", n, len(frame))
		}
	}
	// Bad magic.
	bad := append([]byte{}, frame...)
	bad[0] = 'X'
	if _, err := DecodeMapRequest(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Wrong message type.
	if _, err := DecodeMapResponse(frame); err == nil {
		t.Error("map request accepted as map response")
	}
	// Unknown flags.
	bad = append([]byte{}, frame...)
	bad[5] |= 0x80
	if _, err := DecodeMapRequest(bad); err == nil {
		t.Error("unknown flags accepted")
	}
	// Declared payload length too large / too small.
	bad = append([]byte{}, frame...)
	binary.LittleEndian.PutUint32(bad[6:10], uint32(len(frame))) // lies
	if _, err := DecodeMapRequest(bad); err == nil {
		t.Error("wrong payload length accepted")
	}
	// Trailing bytes after the body.
	if _, err := DecodeMapRequest(append(append([]byte{}, frame...), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestCodecCorruptCompressed: flipping bytes inside a compressed payload
// must fail the decode, and an uncompressed-length lie is caught.
func TestCodecCorruptCompressed(t *testing.T) {
	frame := EncodeReplPullResponse(bigReplPull(5000))
	if frame[5]&flagDeflate == 0 {
		t.Fatal("test frame not compressed")
	}
	// Corrupt the deflate stream.
	bad := append([]byte{}, frame...)
	for i := 20; i < len(bad); i += 37 {
		bad[i] ^= 0xff
	}
	if _, err := DecodeReplPullResponse(bad); err == nil {
		t.Error("corrupt deflate stream accepted")
	}
	// Lie about the uncompressed size.
	bad = append([]byte{}, frame...)
	binary.LittleEndian.PutUint32(bad[10:14], 7)
	if _, err := DecodeReplPullResponse(bad); err == nil {
		t.Error("wrong uncompressed length accepted")
	}
}

// TestCodecCorruptBody: plausible frames with corrupt body length
// prefixes fail cleanly.
func TestCodecCorruptBody(t *testing.T) {
	// A body that is one huge uvarint length with nothing behind it.
	body := binary.AppendUvarint(nil, 1<<40)
	frame := encodeFrame(msgMapRequest, body)
	if _, err := DecodeMapRequest(frame); err == nil {
		t.Error("absurd string length accepted")
	}
	// Valid body, then bit-flipped at every offset: must never panic.
	good := EncodeMapRequest(testMapRequest())
	for i := range good {
		bad := append([]byte{}, good...)
		bad[i] ^= 0x01
		_, _ = DecodeMapRequest(bad) // error or not — just no panic
	}
}
