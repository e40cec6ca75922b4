package serve

import (
	"bytes"
	"net/http"
	"sync"
	"time"

	"wavelethist/dist"
)

// The internal batch hop: POST /v1/query with a WDF1 query frame
// (dist/querycodec.go) is how the router asks a shard for everything it
// owns of a routed batch — several name groups, one request, one reply.
// Each group runs exactly what POST /v1/hist/{name}/query runs (lookup,
// size limits, Entry.batch, Batch stats, slow-query record) and fails on
// its own with the status and message that endpoint would have sent.
// Read-only replicas answer it like any other read.

// frameBuffers is one frame request's reusable state, pooled like
// batchBuffers: the body, the decoded groups and their queries, the
// result groups and their results, and the encoded reply.
type frameBuffers struct {
	body    bytes.Buffer
	groups  []dist.QueryGroup
	queries []BatchQuery
	out     []dist.ResultGroup
	results []BatchResult
	reply   []byte
}

var framePool = sync.Pool{New: func() any { return new(frameBuffers) }}

func (s *Server) handleQueryFrame(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") != dist.ContentTypeBinary {
		writeErr(w, http.StatusUnsupportedMediaType, "POST /v1/query takes %s query frames", dist.ContentTypeBinary)
		return
	}
	fb := framePool.Get().(*frameBuffers)
	defer framePool.Put(fb)
	fb.body.Reset()
	_, err := fb.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		fb.groups, fb.queries, err = dist.DecodeQueryFrame(fb.body.Bytes(), fb.groups, fb.queries)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if cap(fb.results) < len(fb.queries) {
		fb.results = make([]BatchResult, len(fb.queries))
	}
	results := fb.results[:len(fb.queries)]
	fb.out = fb.out[:0]
	for i := range fb.groups {
		g := &fb.groups[i]
		t0 := time.Now()
		n := len(g.Queries)
		res := results[:n:n]
		results = results[n:]
		e, ok := s.reg.Lookup(g.Name)
		if !ok {
			fb.out = append(fb.out, dist.ResultGroup{Status: http.StatusNotFound, Error: noHistogram(g.Name)})
			continue
		}
		if msg := s.batchSizeErr(n); msg != "" {
			fb.out = append(fb.out, dist.ResultGroup{Status: http.StatusBadRequest, Error: msg})
			continue
		}
		e.Batch(g.Queries, res)
		fb.out = append(fb.out, dist.ResultGroup{Status: http.StatusOK, Version: e.Version, Results: res})
		s.slowQuery("batch", e.Name, n, g.Coalesced, time.Since(t0))
	}
	fb.reply = dist.AppendResultFrame(fb.reply[:0], fb.out)
	w.Header().Set("Content-Type", dist.ContentTypeBinary)
	w.Write(fb.reply)
}
