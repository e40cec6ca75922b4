package dist

// Replication frames. A read replica catches up by pulling: it sends the
// highest registry version it has applied (ReplPullRequest.Since) and the
// primary answers with every entry published after that version plus the
// full current name set (ReplPullResponse.Names), which lets the replica
// detect drops without a tombstone log. Entry.Version is the registry
// version at which the entry was installed and is strictly monotonic, so
// it doubles as the replication cursor — the same role an LSN plays in
// log shipping, without keeping a log: the registry snapshot IS the
// materialized log tail.
//
// The frames ride the same WDF1 envelope as the job wire (deflate over
// threshold, crc-free length-prefixed body). Both carry the fencing
// epoch; a frame that ends before it is malformed. A response entry's
// blob names its own kind by its magic (WHST or WH2D); the response of
// older builds, which spelled the kind out in a byte, was message type
// 10 and is refused by type.

// ReplPullRequest asks a primary for all registry changes after Since
// (0 = full snapshot). Epoch is the primary epoch the replica last
// synced from (0 = unknown / first pull): a primary whose own epoch
// differs answers with a full snapshot so the replica re-bases instead
// of trusting a cursor minted under a dead lineage.
type ReplPullRequest struct {
	Since uint64
	Epoch uint64
}

// ReplEntry is one histogram the replica must (re)install: the wire-format
// blob, whose magic names its kind, plus the registry version to advance
// the cursor to.
type ReplEntry struct {
	Name    string
	Version uint64
	Blob    []byte
}

// ReplPullResponse carries the primary's current registry version, the
// complete set of live names (for drop detection), and the entries newer
// than the request's Since, in version order. Epoch is the primary's
// registry epoch; Since echoes the cursor
// the primary actually answered from — 0 means the response is a full
// snapshot, which a primary forces when the request's epoch does not
// match its own.
type ReplPullResponse struct {
	Version uint64
	Epoch   uint64
	Since   uint64
	Names   []string
	Entries []ReplEntry
}

// EncodeReplPullRequest serializes a pull request as one WDF1 frame.
func EncodeReplPullRequest(req *ReplPullRequest) []byte {
	b := appendUvarint(nil, req.Since)
	b = appendUvarint(b, req.Epoch)
	return encodeFrame(msgReplPullRequest, b)
}

// DecodeReplPullRequest is the inverse of EncodeReplPullRequest.
func DecodeReplPullRequest(frame []byte) (*ReplPullRequest, error) {
	body, err := decodeFrame(frame, msgReplPullRequest)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	req := &ReplPullRequest{Since: r.uvarint(), Epoch: r.uvarint()}
	if err := r.done(); err != nil {
		return nil, err
	}
	return req, nil
}

// EncodeReplPullResponse serializes a pull response as one WDF1 frame.
// Histogram blobs dominate the payload; the envelope's deflate pass
// compresses them together with the framing.
func EncodeReplPullResponse(resp *ReplPullResponse) []byte {
	b := appendUvarint(nil, resp.Version)
	b = appendUvarint(b, uint64(len(resp.Names)))
	for _, n := range resp.Names {
		b = appendStr(b, n)
	}
	b = appendUvarint(b, uint64(len(resp.Entries)))
	for i := range resp.Entries {
		e := &resp.Entries[i]
		b = appendStr(b, e.Name)
		b = appendUvarint(b, e.Version)
		b = appendBlob(b, e.Blob)
	}
	b = appendUvarint(b, resp.Epoch)
	b = appendUvarint(b, resp.Since)
	return encodeFrame(msgReplPullResponse, b)
}

// DecodeReplPullResponse is the inverse of EncodeReplPullResponse.
func DecodeReplPullResponse(frame []byte) (*ReplPullResponse, error) {
	body, err := decodeFrame(frame, msgReplPullResponse)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	resp := &ReplPullResponse{Version: r.uvarint()}
	nNames := r.length(1)
	for i := 0; i < nNames && r.err == nil; i++ {
		resp.Names = append(resp.Names, r.str())
	}
	nEnts := r.length(4)
	for i := 0; i < nEnts && r.err == nil; i++ {
		e := ReplEntry{Name: r.str(), Version: r.uvarint(), Blob: r.blob()}
		if r.err != nil {
			break
		}
		resp.Entries = append(resp.Entries, e)
	}
	resp.Epoch = r.uvarint()
	resp.Since = r.uvarint()
	if err := r.done(); err != nil {
		return nil, err
	}
	return resp, nil
}
