package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Two request bodies decode here: the JSON spelling of Query — the
// {"queries":[{…},…]} body of the shard's POST /v1/hist/{name}/query and,
// with a "name" per element, of the router's POST /v1/query — and the
// {"updates":[{"key":K,"delta":D},…],"flush":B} body of the shard's POST
// /v1/hist/{name}/updates. Each has a hand-written scanner for the bodies
// clients actually send and one strict encoding/json call for everything
// else. The scanners share one deliberately narrow grammar:
//
//	body    = '{' "queries" ':' '[' [ element { ',' element } ] ']' '}'
//	element = '{' [ key ':' value { ',' key ':' value } ] '}'
//	key     = one of queryKeys, lower-case, at most once per element
//	          ("name" only where names are asked for)
//	string  = '"' printable ASCII without '"' or '\' '"'
//	integer = [ '-' ] ( '0' | [1-9][0-9]{0,17} )
//
//	updates = '{' [ member { ',' member } ] '}'
//	member  = "updates" ':' '[' [ update { ',' update } ] ']'
//	        | "flush" ':' ( "true" | "false" ), each member at most once
//	update  = '{' [ ukey { ',' ukey } ] '}'
//	ukey    = "key" ':' integer | "delta" ':' integer, each at most once;
//	          a delta is at most 2^53 in magnitude and not -0, so float64
//	          holds it with the bits strconv.ParseFloat gives
//
// with JSON whitespace between tokens and nothing after the closing
// brace. Anything else — escapes, duplicate or case-variant keys, null,
// 1.0, 1e3, 19+ digits, unknown keys, wrong types, truncation — is
// declined, never rejected: DecodeJSON then runs DecodeJSONStrict on the
// same bytes, so what is a bad body, and the error its sender reads, are
// encoding/json's alone, and a body a scanner accepts decodes to exactly
// what encoding/json makes of it (FuzzDecodeQueriesJSON,
// FuzzDecodeUpdatesJSON).

// QueryBatch is one decoded batch body in caller-owned storage: a pooled
// value decodes canonical bodies without allocating.
type QueryBatch struct {
	Queries []Query
	Names   []string // parallel to Queries; filled only when names are asked for

	// interned holds the strings of earlier bodies so that a repeated one
	// is not allocated again; bounded by maxInterned × maxInternedLen.
	interned map[string]string
}

const (
	maxInterned    = 1024
	maxInternedLen = 128 // serve.ValidName's bound: longer names exist on no shard
)

// DecodeJSON decodes body into qb, replacing what it held. scanned says
// which decoder served the request: the scanner, or encoding/json (the
// only one that can fail, and err is its error).
func (qb *QueryBatch) DecodeJSON(body []byte, withNames bool) (scanned bool, err error) {
	if qb.scan(body, withNames) {
		return true, nil
	}
	return false, qb.decodeStd(body, withNames)
}

// namedQuery is the element of a body that carries names.
type namedQuery struct {
	Name string `json:"name"`
	Query
}

func (qb *QueryBatch) decodeStd(body []byte, withNames bool) (err error) {
	// encoding/json reuses slice elements without clearing them, and a
	// declined scan may have written some: an omitted field must not
	// inherit an earlier request's value.
	clear(qb.Queries[:cap(qb.Queries)])
	qb.Queries, qb.Names = qb.Queries[:0], qb.Names[:0]
	if !withNames {
		qb.Queries, err = decodeStrictQueries(body, qb.Queries)
		return err
	}
	named, err := decodeStrictQueries(body, []namedQuery(nil))
	for i := range named {
		qb.Queries = append(qb.Queries, named[i].Query)
		qb.Names = append(qb.Names, named[i].Name)
	}
	return err
}

// decodeStrictQueries decodes body's queries into elems; on an error the
// result is empty.
func decodeStrictQueries[T any](body []byte, elems []T) ([]T, error) {
	req := struct {
		Queries []T `json:"queries"`
	}{elems}
	if err := DecodeJSONStrict(bytes.NewReader(body), &req); err != nil {
		return elems[:0], err
	}
	return req.Queries, nil
}

// DecodeJSONStrict decodes the one JSON value r holds into v the way
// every request body of router and shard is decoded: unknown fields are
// an error, and so is anything but whitespace after the value.
func DecodeJSONStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Asking for a second token is how a Decoder says what follows the
	// value, without allocating when nothing does.
	switch tok, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case err != nil:
		return err
	default:
		return fmt.Errorf("invalid token %v after top-level value", tok)
	}
}

// scan is the fast decoder. false means declined — body is outside the
// grammar above, qb holds a partial decode and the caller falls back —
// and is its only failure result: the scanner never rejects.
func (qb *QueryBatch) scan(body []byte, withNames bool) bool {
	qb.Queries, qb.Names = qb.Queries[:0], qb.Names[:0]
	s := jsonScanner{b: body}
	if !s.token('{') {
		return false
	}
	if key, ok := s.str(); !ok || string(key) != "queries" || !s.token(':') {
		return false
	}
	return s.array(func() bool { return qb.scanQuery(&s, withNames) }) && s.token('}') && s.end()
}

// queryKeys are an element's members: name, op, then the nine bounds in
// the order Query.bounds lists them.
var queryKeys = [...]string{"name", "op", "key", "x", "y", "lo", "hi", "xlo", "xhi", "ylo", "yhi"}

// scanQuery appends one element. The slot may be a pooled one, so it is
// zeroed before the members present are filled in.
func (qb *QueryBatch) scanQuery(s *jsonScanner, withNames bool) bool {
	qb.Queries = append(qb.Queries, Query{})
	q := &qb.Queries[len(qb.Queries)-1]
	bounds := q.bounds()
	name := ""
	ok := s.object(queryKeys[:], func(k int) (ok bool) {
		switch {
		case k >= 2:
			*bounds[k-2], ok = s.integer()
		case k == 1:
			q.Op, ok = qb.internStr(s)
		case withNames:
			name, ok = qb.internStr(s)
		} // else "name" is an unknown field to the shard
		return ok
	})
	if withNames {
		qb.Names = append(qb.Names, name)
	}
	return ok
}

// internStr consumes a string value: the one an earlier body held, when
// there is one, so that "point", "range" and a dashboard's few names are
// allocated once per pooled QueryBatch, not once per query.
func (qb *QueryBatch) internStr(s *jsonScanner) (string, bool) {
	b, ok := s.str()
	if v, hit := qb.interned[string(b)]; hit || !ok {
		return v, ok
	}
	v := string(b)
	if len(v) <= maxInternedLen {
		if qb.interned == nil {
			qb.interned = make(map[string]string)
		} else if len(qb.interned) >= maxInterned {
			clear(qb.interned)
		}
		qb.interned[v] = v
	}
	return v, true
}

// KeyUpdate is one insertion/deletion in POST /v1/hist/{name}/updates.
type KeyUpdate struct {
	Key   int64   `json:"key"`
	Delta float64 `json:"delta"` // negative = deletions
}

// UpdateBatch is one decoded updates body in caller-owned storage: a
// pooled value decodes canonical bodies without allocating.
type UpdateBatch struct {
	Updates []KeyUpdate
	Flush   bool
}

// DecodeJSON decodes body into ub, replacing what it held; scanned and
// err are QueryBatch.DecodeJSON's.
func (ub *UpdateBatch) DecodeJSON(body []byte) (scanned bool, err error) {
	if ub.scan(body) {
		return true, nil
	}
	return false, ub.decodeStd(body)
}

func (ub *UpdateBatch) decodeStd(body []byte) error {
	// As in QueryBatch.decodeStd: a reused element must not keep an
	// omitted field.
	clear(ub.Updates[:cap(ub.Updates)])
	req := struct {
		Updates []KeyUpdate `json:"updates"`
		Flush   bool        `json:"flush,omitempty"`
	}{Updates: ub.Updates[:0]}
	err := DecodeJSONStrict(bytes.NewReader(body), &req)
	ub.Updates, ub.Flush = req.Updates, req.Flush
	return err
}

// updatesKeys are the updates body's members, updateKeys an update's.
var (
	updatesKeys = [...]string{"updates", "flush"}
	updateKeys  = [...]string{"key", "delta"}
)

// scan is the updates body's fast decoder; false means declined, as for
// QueryBatch.scan.
func (ub *UpdateBatch) scan(body []byte) bool {
	ub.Updates, ub.Flush = ub.Updates[:0], false
	s := jsonScanner{b: body}
	return s.object(updatesKeys[:], func(k int) (ok bool) {
		if k == 1 {
			ub.Flush, ok = s.boolean()
			return ok
		}
		return s.array(func() bool {
			ub.Updates = append(ub.Updates, KeyUpdate{})
			u := &ub.Updates[len(ub.Updates)-1]
			return s.object(updateKeys[:], func(k int) (ok bool) {
				if k == 0 {
					u.Key, ok = s.integer()
				} else {
					u.Delta, ok = s.exactFloat()
				}
				return ok
			})
		})
	}) && s.end()
}

// jsonScanner is a cursor over a body. Every method that fails leaves
// the scan to be abandoned, so none restores the cursor.
type jsonScanner struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the byte under the cursor, 0 at
// the end of the body (no token of the grammar starts with NUL).
func (s *jsonScanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// end reports whether only whitespace is left.
func (s *jsonScanner) end() bool { return s.peek() == 0 && s.i == len(s.b) }

// object consumes '{' [ key ':' value { ',' key ':' value } ] '}' whose
// every key is one of keys, at most once; member(k) consumes the value
// of keys[k], returning false to decline it.
func (s *jsonScanner) object(keys []string, member func(k int) bool) bool {
	if !s.token('{') {
		return false
	}
	if s.token('}') {
		return true
	}
	seen := 0 // bit k: keys[k] has appeared
	for more := true; more; more = s.token(',') {
		key, ok := s.str()
		k := 0
		for k < len(keys) && keys[k] != string(key) {
			k++
		}
		if !ok || k == len(keys) || seen&(1<<k) != 0 || !s.token(':') || !member(k) {
			return false
		}
		seen |= 1 << k
	}
	return s.token('}')
}

// array consumes '[' [ element { ',' element } ] ']', each element
// consumed by elem, which returns false to decline it.
func (s *jsonScanner) array(elem func() bool) bool {
	if !s.token('[') {
		return false
	}
	if s.token(']') {
		return true
	}
	for more := true; more; more = s.token(',') {
		if !elem() {
			return false
		}
	}
	return s.token(']')
}

// token consumes the punctuation byte c if it is the next token.
func (s *jsonScanner) token(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// str consumes a string that needs no unquoting and returns its bytes, a
// window of the body.
func (s *jsonScanner) str() ([]byte, bool) {
	if !s.token('"') {
		return nil, false
	}
	for start := s.i; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// integer consumes an integer of at most 18 digits, which always fits an
// int64; what follows it is the caller's to check, so "1.0" and "1e3"
// are declined there.
func (s *jsonScanner) integer() (int64, bool) {
	neg := s.peek() == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for ; s.i < len(s.b) && s.b[s.i]-'0' <= 9 && s.i-start <= 18; s.i++ {
		v = v*10 + int64(s.b[s.i]-'0')
	}
	if n := s.i - start; n == 0 || n > 18 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// exactFloat consumes an integer that float64 holds exactly, |v| ≤ 2^53,
// other than -0 (which integer reads as 0, where strconv.ParseFloat keeps
// the sign).
func (s *jsonScanner) exactFloat() (float64, bool) {
	neg := s.peek() == '-'
	v, ok := s.integer()
	if !ok || v > 1<<53 || v < -(1<<53) || (neg && v == 0) {
		return 0, false
	}
	return float64(v), true
}

// boolean consumes a true or false literal.
func (s *jsonScanner) boolean() (bool, bool) {
	s.peek()
	for _, lit := range [...]string{"false", "true"} {
		if bytes.HasPrefix(s.b[s.i:], []byte(lit)) {
			s.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}
