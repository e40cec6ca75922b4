package dist

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"wavelethist/internal/core"
)

// Binary wire protocol. PR 2/3 shipped every RPC as JSON, which costs
// ~3.5× the model's bytes on partial-heavy responses (decimal floats,
// base64 payloads, field names). This codec replaces the JSON bodies with
// length-prefixed binary frames:
//
//	offset  size  field
//	0       4     magic "WDF1"
//	4       1     message type (msgMapRequest, ...)
//	5       1     flags (bit 0: payload deflate-compressed)
//	6       4     payload length (little-endian uint32)
//	10      4     uncompressed length (present iff compressed)
//	14/10   n     payload (message body, possibly deflated)
//
// Message bodies use little-endian fixed-width scalars, with uvarint
// length prefixes for strings, byte blobs and lists. A map response and
// the query frames (querycodec.go) are never deflated: a map response's
// bulk is its partials payload, which the partial codec (internal/core)
// already writes compactly — sorted keys as varint deltas, small-integer
// counts as one or two bytes — so a deflate pass on each side would cost
// more CPU than the bytes it saves. Every other body at or above
// compressMin bytes is deflated when that actually shrinks it.
//
// The POST routes that carry these frames take ContentTypeBinary and
// nothing else: any other Content-Type is answered 415.

// ContentTypeBinary is the Content-Type of a WDF1 frame.
const ContentTypeBinary = "application/x-wavehist-binary"

const frameMagic = "WDF1"

const (
	flagDeflate byte = 1 << 0
)

// Frame message types.
const (
	msgMapRequest byte = iota + 1
	msgMapResponse
	msgRegisterRequest
	msgRegisterResponse
	msgHeartbeatRequest
	msgHeartbeatResponse
	msgReleaseRequest
	msgReleaseResponse
	msgReplPullRequest  // replication catch-up pull (replcodec.go)
	_                   // retired: pull response with a per-entry kind byte; never reuse
	_                   // retired: coordinator checkpoint; never reuse
	msgQueryBatch       // router→shard batch hop (querycodec.go)
	msgResultBatch      //
	msgReplPullResponse // replication catch-up reply (replcodec.go)
)

const (
	// compressMin is the smallest body encodeFrame tries to deflate
	// (map requests carrying a key list, replication pulls); smaller
	// bodies go as they are.
	compressMin = 1 << 9
	// maxFramePayload bounds both the compressed and the declared
	// uncompressed payload size — a corrupt or hostile length prefix must
	// not allocate unbounded memory. It is also the protocol's hard
	// message-size limit: encodeFrame's length field is a uint32, so
	// producers of unbounded payloads must bound them below this
	// (Worker.HandleMap rejects oversize partials with an application
	// error; request sizes are bounded by the serve layer's dataset
	// limits).
	maxFramePayload = 1 << 30
	// maxPartialsPayload leaves frame-header and sibling-field slack
	// below maxFramePayload for a map response's partials blob.
	maxPartialsPayload = maxFramePayload - (1 << 16)
)

var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// encodeFrame wraps a message body in a length-prefixed frame, deflating
// large bodies when compression wins.
func encodeFrame(msg byte, body []byte) []byte {
	flags := byte(0)
	payload := body
	if len(body) >= compressMin {
		var buf bytes.Buffer
		buf.Grow(len(body) / 2)
		zw := flateWriters.Get().(*flate.Writer)
		zw.Reset(&buf)
		if _, err := zw.Write(body); err == nil && zw.Close() == nil && buf.Len() < len(body) {
			payload = buf.Bytes()
			flags |= flagDeflate
		}
		flateWriters.Put(zw)
	}
	n := 10 + len(payload)
	if flags&flagDeflate != 0 {
		n += 4
	}
	out := make([]byte, 0, n)
	out = append(out, frameMagic...)
	out = append(out, msg, flags)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
	if flags&flagDeflate != 0 {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	}
	return append(out, payload...)
}

// frameHeaderLen is the size of an uncompressed frame's header.
const frameHeaderLen = 10

// beginFrame appends the header of an uncompressed frame to dst, its
// length field still zero; the caller appends the body and hands the
// result to endFrame with the offset beginFrame was called at. This is
// the append-in-place form for the message types that never take
// encodeFrame's deflate pass (map responses and query frames).
func beginFrame(dst []byte, msg byte) []byte {
	dst = append(dst, frameMagic...)
	return append(dst, msg, 0, 0, 0, 0, 0)
}

// endFrame patches the payload length of the frame begun at dst[start:].
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+6:], uint32(len(dst)-start-frameHeaderLen))
	return dst
}

// decodePlainFrame is decodeFrame for the never-deflated message types:
// a set deflate flag is an error, so the body is always the frame's own
// bytes and its size bounds everything decoded from it.
func decodePlainFrame(frame []byte, wantMsg byte) ([]byte, error) {
	if len(frame) >= frameHeaderLen && frame[5]&flagDeflate != 0 {
		return nil, fmt.Errorf("dist: message type %d frames are never deflated", frame[4])
	}
	return decodeFrame(frame, wantMsg)
}

// decodeFrame validates a frame and returns its (decompressed) body.
func decodeFrame(b []byte, wantMsg byte) ([]byte, error) {
	if len(b) < 10 {
		return nil, fmt.Errorf("dist: truncated frame (%d bytes)", len(b))
	}
	if string(b[:4]) != frameMagic {
		return nil, fmt.Errorf("dist: bad frame magic %q", b[:4])
	}
	if b[4] != wantMsg {
		return nil, fmt.Errorf("dist: frame is message type %d, want %d", b[4], wantMsg)
	}
	flags := b[5]
	if flags&^flagDeflate != 0 {
		return nil, fmt.Errorf("dist: unknown frame flags %#x", flags)
	}
	plen := int64(binary.LittleEndian.Uint32(b[6:10]))
	off := 10
	var rawLen int64 = -1
	if flags&flagDeflate != 0 {
		if len(b) < 14 {
			return nil, fmt.Errorf("dist: truncated compressed frame header")
		}
		rawLen = int64(binary.LittleEndian.Uint32(b[10:14]))
		off = 14
	}
	if plen > maxFramePayload || rawLen > maxFramePayload {
		return nil, fmt.Errorf("dist: frame payload too large")
	}
	if int64(len(b)-off) != plen {
		return nil, fmt.Errorf("dist: frame declares %d payload bytes, has %d", plen, len(b)-off)
	}
	payload := b[off:]
	if flags&flagDeflate == 0 {
		return payload, nil
	}
	zr := flate.NewReader(bytes.NewReader(payload))
	// Preallocation is capped well below maxFramePayload: rawLen is
	// attacker-controlled, and trusting it before any compressed data
	// has been verified would let a ~24-byte frame allocate 1 GiB. The
	// buffer grows naturally past the cap for honest large frames.
	prealloc := rawLen
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	buf := bytes.NewBuffer(make([]byte, 0, prealloc))
	// +1 so a stream longer than declared is detected, not truncated.
	n, err := io.Copy(buf, io.LimitReader(zr, rawLen+1))
	if err != nil {
		return nil, fmt.Errorf("dist: corrupt compressed frame: %v", err)
	}
	if n != rawLen {
		return nil, fmt.Errorf("dist: compressed frame declares %d raw bytes, has %d", rawLen, n)
	}
	return buf.Bytes(), nil
}

// ---------- body primitives ----------

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendStr(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBlob(b []byte, p []byte) []byte {
	b = appendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInts(b []byte, xs []int) []byte {
	b = appendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = appendI64(b, int64(x))
	}
	return b
}

func appendInt64s(b []byte, xs []int64) []byte {
	b = appendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = appendI64(b, x)
	}
	return b
}

// breader is a bounds-checked body reader: every accessor returns a zero
// value once an error latched, so decoders read the whole layout and check
// err once at the end. List and blob length prefixes are validated against
// the remaining bytes before allocation.
type breader struct {
	b   []byte
	off int
	err error
}

func (r *breader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("dist: "+format, args...)
	}
}

func (r *breader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *breader) i64() int64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("truncated int64 at offset %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return int64(v)
}

func (r *breader) f64() float64 { return math.Float64frombits(uint64(r.i64())) }

// varint reads a zig-zag signed varint (binary.AppendVarint's encoding).
func (r *breader) varint() int64 {
	v := r.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

func (r *breader) u8() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 1 {
		r.fail("truncated byte at offset %d", r.off)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *breader) boolean() bool { return r.u8() != 0 }

// length reads a list/blob length prefix, rejecting counts that cannot fit
// in the remaining bytes at elemSize bytes per element.
func (r *breader) length(elemSize int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(len(r.b)-r.off)/uint64(elemSize) {
		r.fail("corrupt length %d at offset %d", v, r.off)
		return 0
	}
	return int(v)
}

func (r *breader) str() string {
	n := r.length(1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

func (r *breader) blob() []byte {
	n := r.length(1)
	if r.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, n)
	copy(p, r.b[r.off:])
	r.off += n
	return p
}

func (r *breader) ints() []int {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(r.i64())
	}
	return out
}

func (r *breader) int64s() []int64 {
	n := r.length(8)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

func (r *breader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("dist: %d trailing bytes after message body", len(r.b)-r.off)
	}
	return nil
}

// ---------- message bodies ----------

func appendParams(b []byte, p core.Params) []byte {
	b = appendI64(b, p.U)
	b = appendI64(b, int64(p.K))
	b = appendF64(b, p.Epsilon)
	b = appendI64(b, p.SplitSize)
	b = appendI64(b, int64(p.Seed))
	b = appendBool(b, p.CombineEnabled)
	b = appendI64(b, p.SketchBytes)
	b = appendI64(b, int64(p.SketchDegree))
	return b
}

func (r *breader) params() core.Params {
	var p core.Params
	p.U = r.i64()
	p.K = int(r.i64())
	p.Epsilon = r.f64()
	p.SplitSize = r.i64()
	p.Seed = uint64(r.i64())
	p.CombineEnabled = r.boolean()
	p.SketchBytes = r.i64()
	p.SketchDegree = int(r.i64())
	return p
}

func appendSpec(b []byte, s DatasetSpec) []byte {
	b = appendStr(b, s.Kind)
	b = appendI64(b, s.Records)
	b = appendI64(b, s.Domain)
	b = appendF64(b, s.Alpha)
	b = appendI64(b, int64(s.RecordSize))
	b = appendI64(b, s.ChunkSize)
	b = appendI64(b, int64(s.Nodes))
	b = appendI64(b, int64(s.Seed))
	b = appendI64(b, int64(s.ClientBits))
	b = appendI64(b, int64(s.ObjectBits))
	b = appendInt64s(b, s.Keys)
	return b
}

func (r *breader) spec() DatasetSpec {
	var s DatasetSpec
	s.Kind = r.str()
	s.Records = r.i64()
	s.Domain = r.i64()
	s.Alpha = r.f64()
	s.RecordSize = int(r.i64())
	s.ChunkSize = r.i64()
	s.Nodes = int(r.i64())
	s.Seed = uint64(r.i64())
	s.ClientBits = uint(r.i64())
	s.ObjectBits = uint(r.i64())
	s.Keys = r.int64s()
	return s
}

// EncodeMapRequest frames a map request in the binary wire format.
func EncodeMapRequest(req *MapRequest) []byte {
	b := appendStr(nil, req.JobID)
	b = appendStr(b, req.Method)
	b = appendParams(b, req.Params)
	b = appendSpec(b, req.Dataset)
	b = appendInts(b, req.Splits)
	b = appendI64(b, int64(req.Round))
	b = appendI64(b, int64(req.Rounds))
	b = appendBlob(b, req.Broadcast)
	return encodeFrame(msgMapRequest, b)
}

// DecodeMapRequest is the inverse of EncodeMapRequest.
func DecodeMapRequest(frame []byte) (*MapRequest, error) {
	body, err := decodeFrame(frame, msgMapRequest)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	req := &MapRequest{}
	req.JobID = r.str()
	req.Method = r.str()
	req.Params = r.params()
	req.Dataset = r.spec()
	req.Splits = r.ints()
	req.Round = int(r.i64())
	req.Rounds = int(r.i64())
	req.Broadcast = r.blob()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("bad map request: %w", err)
	}
	return req, nil
}

// EncodeMapResponse frames a map response in the binary wire format, in
// one buffer of its final size and never deflated.
func EncodeMapResponse(resp *MapResponse) []byte {
	n := frameHeaderLen + 5*binary.MaxVarintLen64 + len(resp.JobID) + len(resp.Partials) + 8*(len(resp.Replayed)+len(resp.Cached)) + len(resp.Error)
	b := beginFrame(make([]byte, 0, n), msgMapResponse)
	b = appendStr(b, resp.JobID)
	b = appendBlob(b, resp.Partials)
	b = appendInts(b, resp.Replayed)
	b = appendInts(b, resp.Cached)
	b = appendStr(b, resp.Error)
	return endFrame(b, 0)
}

// DecodeMapResponse is the inverse of EncodeMapResponse; a deflated map
// response is refused.
func DecodeMapResponse(frame []byte) (*MapResponse, error) {
	body, err := decodePlainFrame(frame, msgMapResponse)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	resp := &MapResponse{}
	resp.JobID = r.str()
	resp.Partials = r.blob()
	resp.Replayed = r.ints()
	resp.Cached = r.ints()
	resp.Error = r.str()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("bad map response: %w", err)
	}
	return resp, nil
}

// EncodeRegisterRequest frames a worker registration.
func EncodeRegisterRequest(req *RegisterRequest) []byte {
	b := appendStr(nil, req.ID)
	b = appendStr(b, req.Addr)
	b = appendI64(b, int64(req.Capacity))
	return encodeFrame(msgRegisterRequest, b)
}

// DecodeRegisterRequest is the inverse of EncodeRegisterRequest.
func DecodeRegisterRequest(frame []byte) (*RegisterRequest, error) {
	body, err := decodeFrame(frame, msgRegisterRequest)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	req := &RegisterRequest{}
	req.ID = r.str()
	req.Addr = r.str()
	req.Capacity = int(r.i64())
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("bad register request: %w", err)
	}
	return req, nil
}

// EncodeRegisterResponse frames a registration ack.
func EncodeRegisterResponse(resp *RegisterResponse) []byte {
	b := appendBool(nil, resp.OK)
	b = appendI64(b, resp.HeartbeatMillis)
	return encodeFrame(msgRegisterResponse, b)
}

// DecodeRegisterResponse is the inverse of EncodeRegisterResponse.
func DecodeRegisterResponse(frame []byte) (*RegisterResponse, error) {
	body, err := decodeFrame(frame, msgRegisterResponse)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	resp := &RegisterResponse{}
	resp.OK = r.boolean()
	resp.HeartbeatMillis = r.i64()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("bad register response: %w", err)
	}
	return resp, nil
}

// EncodeHeartbeatRequest frames a heartbeat.
func EncodeHeartbeatRequest(req *HeartbeatRequest) []byte {
	return encodeFrame(msgHeartbeatRequest, appendStr(nil, req.ID))
}

// DecodeHeartbeatRequest is the inverse of EncodeHeartbeatRequest.
func DecodeHeartbeatRequest(frame []byte) (*HeartbeatRequest, error) {
	body, err := decodeFrame(frame, msgHeartbeatRequest)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	req := &HeartbeatRequest{ID: r.str()}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("bad heartbeat request: %w", err)
	}
	return req, nil
}

// EncodeHeartbeatResponse frames a heartbeat ack.
func EncodeHeartbeatResponse(resp *HeartbeatResponse) []byte {
	return encodeFrame(msgHeartbeatResponse, appendBool(nil, resp.OK))
}

// DecodeHeartbeatResponse is the inverse of EncodeHeartbeatResponse.
func DecodeHeartbeatResponse(frame []byte) (*HeartbeatResponse, error) {
	body, err := decodeFrame(frame, msgHeartbeatResponse)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	resp := &HeartbeatResponse{OK: r.boolean()}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("bad heartbeat response: %w", err)
	}
	return resp, nil
}

// EncodeReleaseRequest frames a lease release.
func EncodeReleaseRequest(req *ReleaseRequest) []byte {
	return encodeFrame(msgReleaseRequest, appendStr(nil, req.JobID))
}

// DecodeReleaseRequest is the inverse of EncodeReleaseRequest.
func DecodeReleaseRequest(frame []byte) (*ReleaseRequest, error) {
	body, err := decodeFrame(frame, msgReleaseRequest)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	req := &ReleaseRequest{JobID: r.str()}
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("bad release request: %w", err)
	}
	return req, nil
}

// EncodeReleaseResponse frames a release ack.
func EncodeReleaseResponse(resp *ReleaseResponse) []byte {
	b := appendBool(nil, resp.OK)
	b = appendBool(b, resp.Released)
	return encodeFrame(msgReleaseResponse, b)
}

// DecodeReleaseResponse is the inverse of EncodeReleaseResponse.
func DecodeReleaseResponse(frame []byte) (*ReleaseResponse, error) {
	body, err := decodeFrame(frame, msgReleaseResponse)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	resp := &ReleaseResponse{}
	resp.OK = r.boolean()
	resp.Released = r.boolean()
	if err := r.done(); err != nil {
		return nil, fmt.Errorf("bad release response: %w", err)
	}
	return resp, nil
}
