package dist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Query frames: the router→shard batch hop. A routed batch used to cross
// this hop as one JSON request per histogram name, marshalled by the
// router, decoded and re-encoded by the shard and decoded again by the
// router; these two WDF1 messages carry a whole shard's worth of it —
// every name group the shard owns — in one request and one reply.
//
//	query batch:  uvarint groups, then per group
//	                str name, uvarint coalesced, uvarint queries, then per query
//	                  op byte (opPoint | opRange | opOther + str op)
//	                  the nine Query bounds as zig-zag varints, in field order
//	result batch: uvarint groups, then per group
//	                uvarint status, str error, uvarint version, uvarint results,
//	                then per result: float64 bits, str error
//
// A group's status and error are what the shard's JSON batch endpoint
// would have answered for that name (404 unknown name, 400 empty or
// oversize batch), so one bad name fails its own group only. Both
// messages are written with the deflate flag clear: frames are a few KB
// and the hop is latency-bound, so compression would spend more time
// than the loopback or rack link saves. That is a property of the
// message type, not an option.

// Query is one point or range query: the element of the JSON batch API
// (serve.BatchQuery is this type) and of a query frame. Point queries
// address 1D histograms by Key and 2D ones by (X, Y); range queries
// address 1D histograms by [Lo, Hi] and 2D ones by the rectangle
// [XLo, XHi] × [YLo, YHi].
type Query struct {
	Op  string `json:"op"` // "point" | "range"
	Key int64  `json:"key,omitempty"`
	X   int64  `json:"x,omitempty"`
	Y   int64  `json:"y,omitempty"`
	Lo  int64  `json:"lo,omitempty"`
	Hi  int64  `json:"hi,omitempty"`
	XLo int64  `json:"xlo,omitempty"`
	XHi int64  `json:"xhi,omitempty"`
	YLo int64  `json:"ylo,omitempty"`
	YHi int64  `json:"yhi,omitempty"`
}

// bounds is the nine bounds in field order: the order a query frame
// carries them in and queryKeys names them in.
func (q *Query) bounds() [9]*int64 {
	return [...]*int64{&q.Key, &q.X, &q.Y, &q.Lo, &q.Hi, &q.XLo, &q.XHi, &q.YLo, &q.YHi}
}

// QueryResult is one per-query outcome (serve.BatchResult is this type).
type QueryResult struct {
	Estimate float64 `json:"estimate"`
	Error    string  `json:"error,omitempty"`
}

// QueryGroup is the queries one frame carries for one histogram name.
// Coalesced is how many single client queries the router folded into the
// group (0 for an organic batch); it feeds the shard's slow-query log.
type QueryGroup struct {
	Name      string
	Coalesced int
	Queries   []Query
}

// ResultGroup answers one QueryGroup. Status is the HTTP status the
// shard's JSON batch endpoint would have sent for the group; Error and
// an empty Results accompany anything but 200.
type ResultGroup struct {
	Status  int
	Error   string
	Version uint64
	Results []QueryResult
}

const (
	opOther byte = iota // op string follows
	opPoint
	opRange
)

// Smallest encodings, for bounds-checking list lengths before decoding:
// a query is an op byte plus nine one-byte varints, a result eight float
// bytes plus an empty string, a group its three or four one-byte fields.
const (
	minQueryBytes       = 10
	minResultBytes      = 9
	minQueryGroupBytes  = 3
	minResultGroupBytes = 4
)

// AppendQueryFrame appends one query-batch frame to dst.
func AppendQueryFrame(dst []byte, groups []QueryGroup) []byte {
	start := len(dst)
	dst = beginFrame(dst, msgQueryBatch)
	dst = appendUvarint(dst, uint64(len(groups)))
	for i := range groups {
		g := &groups[i]
		dst = appendStr(dst, g.Name)
		dst = appendUvarint(dst, uint64(g.Coalesced))
		dst = appendUvarint(dst, uint64(len(g.Queries)))
		for j := range g.Queries {
			q := &g.Queries[j]
			switch q.Op {
			case "point":
				dst = append(dst, opPoint)
			case "range":
				dst = append(dst, opRange)
			default:
				dst = append(dst, opOther)
				dst = appendStr(dst, q.Op)
			}
			for _, p := range q.bounds() {
				dst = binary.AppendVarint(dst, *p)
			}
		}
	}
	return endFrame(dst, start)
}

// DecodeQueryFrame decodes a query-batch frame into the caller's slices,
// which it truncates, appends to and returns so a pooled pair is reused
// across requests. Every group's Queries is a window of the returned
// query slice. List lengths are checked against the bytes that remain
// before anything is appended, so a frame cannot make the decoder hold
// more elements than its own size allows.
func DecodeQueryFrame(frame []byte, groups []QueryGroup, queries []Query) ([]QueryGroup, []Query, error) {
	groups, queries = groups[:0], queries[:0]
	body, err := decodePlainFrame(frame, msgQueryBatch)
	if err != nil {
		return groups, queries, err
	}
	r := breader{b: body}
	nGroups := r.length(minQueryGroupBytes)
	for i := 0; i < nGroups && r.err == nil; i++ {
		g := QueryGroup{Name: r.str(), Coalesced: r.smallInt()}
		n := r.length(minQueryBytes)
		first := len(queries)
		for j := 0; j < n && r.err == nil; j++ {
			queries = append(queries, r.query())
		}
		g.Queries = queries[first:]
		groups = append(groups, g)
	}
	if err := r.done(); err != nil {
		return groups[:0], queries[:0], fmt.Errorf("bad query frame: %w", err)
	}
	// The appends above may have moved the query slice; point every
	// group at its window of the final one.
	off := 0
	for i := range groups {
		n := len(groups[i].Queries)
		groups[i].Queries = queries[off : off+n : off+n]
		off += n
	}
	return groups, queries, nil
}

func (r *breader) query() Query {
	var q Query
	switch op := r.u8(); op {
	case opPoint:
		q.Op = "point"
	case opRange:
		q.Op = "range"
	case opOther:
		q.Op = r.str()
	default:
		r.fail("unknown op code %d at offset %d", op, r.off-1)
	}
	for _, p := range q.bounds() {
		*p = r.varint()
	}
	return q
}

// smallInt reads a uvarint that must fit a non-negative int32 (counts
// and HTTP statuses), so it converts to int on every platform.
func (r *breader) smallInt() int {
	v := r.uvarint()
	if v > math.MaxInt32 {
		r.fail("value %d out of range at offset %d", v, r.off)
		return 0
	}
	return int(v)
}

// AppendResultFrame appends one result-batch frame to dst.
func AppendResultFrame(dst []byte, groups []ResultGroup) []byte {
	start := len(dst)
	dst = beginFrame(dst, msgResultBatch)
	dst = appendUvarint(dst, uint64(len(groups)))
	for i := range groups {
		g := &groups[i]
		dst = appendUvarint(dst, uint64(g.Status))
		dst = appendStr(dst, g.Error)
		dst = appendUvarint(dst, g.Version)
		dst = appendUvarint(dst, uint64(len(g.Results)))
		for j := range g.Results {
			dst = appendF64(dst, g.Results[j].Estimate)
			dst = appendStr(dst, g.Results[j].Error)
		}
	}
	return endFrame(dst, start)
}

// DecodeResultFrame is DecodeQueryFrame's counterpart for result-batch
// frames: same slice reuse, same windows, same bounds checks.
func DecodeResultFrame(frame []byte, groups []ResultGroup, results []QueryResult) ([]ResultGroup, []QueryResult, error) {
	groups, results = groups[:0], results[:0]
	body, err := decodePlainFrame(frame, msgResultBatch)
	if err != nil {
		return groups, results, err
	}
	r := breader{b: body}
	nGroups := r.length(minResultGroupBytes)
	for i := 0; i < nGroups && r.err == nil; i++ {
		g := ResultGroup{Status: r.smallInt(), Error: r.str(), Version: r.uvarint()}
		n := r.length(minResultBytes)
		first := len(results)
		for j := 0; j < n && r.err == nil; j++ {
			results = append(results, QueryResult{Estimate: r.f64(), Error: r.str()})
		}
		g.Results = results[first:]
		groups = append(groups, g)
	}
	if err := r.done(); err != nil {
		return groups[:0], results[:0], fmt.Errorf("bad result frame: %w", err)
	}
	off := 0
	for i := range groups {
		n := len(groups[i].Results)
		groups[i].Results = results[off : off+n : off+n]
		off += n
	}
	return groups, results, nil
}
