package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// Allocation-free JSON encoding for the single-query endpoints (point,
// range, 2D point and rectangle). These are the latency-sensitive hot
// path a query optimizer hits per plan candidate; going through
// encoding/json + map[string]any cost ~20 allocations per request.
// Instead the response is appended into a pooled byte buffer with
// strconv primitives — the same recycled-buffer discipline the batch
// endpoint already uses — so the steady state allocates nothing.

// estBufPool recycles response buffers across requests. 256 bytes covers
// every single-estimate response (name <= 128 bytes plus six numbers).
var estBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// EstimateField is one echoed query parameter in a single-estimate
// response (see AppendEstimate).
type EstimateField struct {
	Name  string
	Value int64
}

// AppendEstimate builds {"name":…,"version":…,<f1>,…,<fn>,"estimate":…}
// — the exact bytes the single-query endpoints serve. It is exported so
// the router's coalescer can render byte-identical responses from batch
// results. Field names are compile-time literals and histogram names
// are ValidName-constrained (no characters needing JSON escaping), so
// plain quoting is exact. The variadic slice never escapes, so literal
// call sites stay allocation-free.
func AppendEstimate(b []byte, name string, version uint64, est float64, fields ...EstimateField) []byte {
	b = append(b, `{"name":"`...)
	b = append(b, name...)
	b = append(b, `","version":`...)
	b = strconv.AppendUint(b, version, 10)
	for _, f := range fields {
		b = append(b, ',', '"')
		b = append(b, f.Name...)
		b = append(b, '"', ':')
		b = strconv.AppendInt(b, f.Value, 10)
	}
	b = append(b, `,"estimate":`...)
	b = appendJSONFloat(b, est)
	b = append(b, '}', '\n')
	return b
}

// AppendBatchResults builds {"results":[{"estimate":…},{"estimate":0,
// "error":"…"},…]} plus a newline — byte for byte what json.Encoder
// writes for map[string]any{"results": results} with a non-empty
// slice — so the router can answer POST /v1/query from a pooled buffer.
func AppendBatchResults(b []byte, results []BatchResult) []byte {
	b = append(b, '{')
	b = appendResults(b, results)
	return append(b, '}', '\n')
}

// appendBatchResponse builds the envelope of POST /v1/hist/{name}/query,
// {"name":…,"version":…,"results":[…]} plus a newline, byte for byte
// what json.Encoder wrote for it when it was a struct.
func appendBatchResponse(b []byte, name string, version uint64, results []BatchResult) []byte {
	b = append(b, `{"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"version":`...)
	b = strconv.AppendUint(b, version, 10)
	b = append(b, ',')
	b = appendResults(b, results)
	return append(b, '}', '\n')
}

// appendResults appends the "results":[…] member both replies share.
func appendResults(b []byte, results []BatchResult) []byte {
	b = append(b, `"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"estimate":`...)
		b = appendJSONFloat(b, results[i].Estimate)
		if msg := results[i].Error; msg != "" {
			b = append(b, `,"error":`...)
			b = appendJSONString(b, msg)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendJSONString appends s as encoding/json quotes it, HTML escaping
// included. Error messages are nearly always plain printable ASCII,
// which needs only the quotes; anything else goes through json.Marshal
// itself so the escaping rules live in one place.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends a float byte-for-byte the way encoding/json
// renders float64s: shortest round-trippable form, fixed notation for
// typical estimate magnitudes, scientific outside [1e-6, 1e21), with
// json's "e-09" → "e-9" exponent cleanup.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// writeEstimate sends an AppendEstimate response from a pooled buffer.
func writeEstimate(w http.ResponseWriter, name string, version uint64, est float64, fields ...EstimateField) {
	bp := estBufPool.Get().(*[]byte)
	b := AppendEstimate((*bp)[:0], name, version, est, fields...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
	*bp = b
	estBufPool.Put(bp)
}
