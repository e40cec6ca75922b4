package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// dashboardBody is the benchmark's routed_batch body at n = 256:
// json.Marshal of n named point and range queries over eight names (what
// marshalling ha.NamedQuery produces; dist cannot import ha).
func dashboardBody(tb testing.TB, n int, withNames bool) []byte {
	tb.Helper()
	queries := make([]namedQuery, n)
	for i := range queries {
		q := namedQuery{Name: fmt.Sprintf("dash-%d", i%8)}
		if i%4 == 0 {
			q.Op, q.Lo, q.Hi = "range", int64(i), int64(i+900)
		} else {
			q.Op, q.Key = "point", int64(i*37%(1<<12))
		}
		queries[i] = q
	}
	var v any = map[string]any{"queries": queries}
	if !withNames {
		plain := make([]Query, len(queries))
		for i := range queries {
			plain[i] = queries[i].Query
		}
		v = map[string]any{"queries": plain}
	}
	body, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// declinedBodies are outside the scanner's grammar, one per rule; some
// are valid JSON the strict decoder accepts, some are not.
var declinedBodies = []string{
	`{"queries":[{"name":"a\u0062","op":"point","key":1}]}`, // escape
	`{"queries":[{"name":"a\"b","op":"point"}]}`,
	`{"queries":[{"name":"é","op":"point","key":1}]}`,      // non-ASCII
	"{\"queries\":[{\"name\":\"a\tb\",\"op\":\"point\"}]}", // control byte
	`{"queries":[{"op":"point","key":1,"key":2}]}`,         // duplicate key
	`{"queries":[{"op":"point","Key":1}]}`,                 // case variant
	`{"Queries":[{"op":"point","key":1}]}`,
	`{"queries":[{"op":"point","key":null}]}`, // null
	`{"queries":null}`,
	`{"queries":[null]}`,
	`{"queries":[{"op":"point","key":1.0}]}`, // fraction
	`{"queries":[{"op":"point","key":1e3}]}`, // exponent
	`{"queries":[{"op":"point","key":01}]}`,  // leading zero
	`{"queries":[{"op":"point","key":-}]}`,
	`{"queries":[{"op":"point","key":1234567890123456789}]}`,  // 19 digits
	`{"queries":[{"op":"point","key":-9223372036854775808}]}`, // math.MinInt64
	`{"queries":[{"op":"point","key":99999999999999999999}]}`, // overflows
	`{"queries":[{"op":"point","key":1,"bogus":1}]}`,          // unknown key
	`{"queries":[{"op":"point","key":1}],"bogus":1}`,
	`{"bogus":1,"queries":[{"op":"point","key":1}]}`,
	`{"queries":[{"op":"point","key":"1"}]}`, // wrong type
	`{"queries":[{"op":1,"key":1}]}`,
	`{"queries":[{"name":7,"op":"point"}]}`,
	`{"queries":{"op":"point","key":1}}`,
	`{"queries":[[{"op":"point","key":1}]]}`,
	`[{"op":"point","key":1}]`,
	`{"queries":[{"op":"point","key":1}]}}`, // trailing bytes
	`{"queries":[{"op":"point","key":1}]}{"queries":[]}`,
	`{"queries":[{"op":"point","key":1}]} x`,
	"{\"queries\":[{\"op\":\"point\",\"key\":1}]}\x00",
	`{"queries":[{"op":"point","key":1},]}`, // trailing comma
	`{"queries":[{"op":"point","key":1,}]}`,
	`{"queries":[{"op":"point" "key":1}]}`, // missing comma
	`{"queries":[{"op":"point","key":1}`,   // truncated
	`{}`,                                   // missing queries
	``,
	"\xef\xbb\xbf" + `{"queries":[{"op":"point","key":1}]}`, // BOM
	`{"queries":[{"op":"point","key":1}]` + "\v" + `}`,      // not JSON whitespace
	`{"queries":[{"op":"point","key": - 1}]}`,
	`{"queries":[{"op":"point","key":+1}]}`,
	`{"queries":[{"op":"point","key":0x10}]}`,
	`{"queries":[{"op":"point","key":true}]}`,
	`{'queries':[{"op":"point","key":1}]}`,
	`{"queries":[{"op":"point","key":1}]}` + "\n" + `garbage`,
	`{"queries":[{"op":"point","key":1}` + "\n" + `]} /* c */`,
	`{"queries":[{"":1}]}`,
	`{"queries":[{"op":"point","key":1}]}` + strings.Repeat("}", 3),
}

// acceptedBodies are inside the grammar (with names asked for).
var acceptedBodies = []string{
	`{"queries":[]}`,
	`{"queries":[{}]}`,
	`{"queries":[{"op":"point","key":-0}]}`,
	`{"queries":[{"name":"","op":""}]}`,
	`{"queries":[{"key":999999999999999999,"lo":-999999999999999999}]}`, // 18 digits
	`{"queries":[{"name":"h","op":"range","xlo":1,"xhi":2,"ylo":3,"yhi":4,"x":5,"y":6,"lo":7,"hi":8,"key":9}]}`,
	`{"queries":[{"op":"sum","key":1},{"name":"~ !#$%&'()*+,-./:;<=>?@[]^_{|}` + "`" + `"}]}`,
	" \t\r\n{ \"queries\" :\n[ {\n\t\"name\" : \"a\" ,\n\t\"op\" : \"point\" ,\n\t\"key\" : 1\n} , { } ]\r\n}\n\n",
}

// checkAgainstStd is the decoder's contract on one body: a scan that
// accepts has decoded what strict encoding/json decodes, and a body
// strict encoding/json rejects is never accepted.
func checkAgainstStd(t *testing.T, body []byte, withNames bool) (scanned bool) {
	t.Helper()
	var fast, std QueryBatch
	scanned = fast.scan(body, withNames)
	err := std.decodeStd(body, withNames)
	if !scanned {
		return false
	}
	if err != nil {
		t.Fatalf("scanner accepted %q (names %v), encoding/json rejects it: %v", body, withNames, err)
	}
	// Copies, so that a nil and an empty slice compare equal.
	if got, want := append([]Query{}, fast.Queries...), append([]Query{}, std.Queries...); !reflect.DeepEqual(got, want) {
		t.Fatalf("%q (names %v): queries\nscan %+v\nstd  %+v", body, withNames, got, want)
	}
	if got, want := append([]string{}, fast.Names...), append([]string{}, std.Names...); !reflect.DeepEqual(got, want) {
		t.Fatalf("%q (names %v): names\nscan %q\nstd  %q", body, withNames, got, want)
	}
	if withNames && len(fast.Names) != len(fast.Queries) {
		t.Fatalf("%q: %d names for %d queries", body, len(fast.Names), len(fast.Queries))
	}
	return true
}

func prettyBody(tb testing.TB, body []byte) []byte {
	var out bytes.Buffer
	if err := json.Indent(&out, body, "", "\t"); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

func TestDecodeQueriesJSONGrammar(t *testing.T) {
	for _, withNames := range []bool{true, false} {
		canonical := dashboardBody(t, 256, withNames)
		for _, body := range [][]byte{canonical, prettyBody(t, canonical)} {
			if !checkAgainstStd(t, body, withNames) {
				t.Errorf("names %v: the benchmark's body was declined", withNames)
			}
		}
	}
	for _, body := range acceptedBodies {
		if !checkAgainstStd(t, []byte(body), true) {
			t.Errorf("declined %q", body)
		}
		// Without names the same body is accepted unless it carries one,
		// which the shard's strict decoder calls an unknown field.
		var qb QueryBatch
		if got, want := checkAgainstStd(t, []byte(body), false), !strings.Contains(body, `"name"`); got != want {
			t.Errorf("names off: scanned = %v for %q", got, body)
		} else if !want && qb.decodeStd([]byte(body), false) == nil {
			t.Errorf("strict decode without names accepted %q", body)
		}
	}
	for _, body := range declinedBodies {
		for _, withNames := range []bool{true, false} {
			if checkAgainstStd(t, []byte(body), withNames) {
				t.Errorf("names %v: scanned %q", withNames, body)
			}
		}
	}
	// DecodeJSON reports the decoder and returns encoding/json's verdict.
	var qb QueryBatch
	if scanned, err := qb.DecodeJSON([]byte(`{"queries":[{"op":"point","key":-9223372036854775808}]}`), false); scanned || err != nil || qb.Queries[0].Key != math.MinInt64 {
		t.Errorf("MinInt64: scanned %v, err %v, %+v", scanned, err, qb.Queries)
	}
	if scanned, err := qb.DecodeJSON([]byte(`{"queries":[{"op":"point","key":1.0}]}`), false); scanned || err == nil {
		t.Errorf("1.0: scanned %v, err %v", scanned, err)
	}
	if scanned, err := qb.DecodeJSON([]byte(`{"queries":[{"op":"point","key":7}]}`), false); !scanned || err != nil || qb.Queries[0].Key != 7 {
		t.Errorf("canonical: scanned %v, err %v, %+v", scanned, err, qb.Queries)
	}
}

// TestDecodeQueriesJSONTruncated cuts accepted bodies at every prefix:
// the scanner never accepts a strict prefix (short of trailing
// whitespace) and never panics.
func TestDecodeQueriesJSONTruncated(t *testing.T) {
	bodies := [][]byte{dashboardBody(t, 256, true)[:2000], prettyBody(t, dashboardBody(t, 256, true))[:3000]}
	for _, b := range acceptedBodies {
		bodies = append(bodies, []byte(b))
	}
	for _, body := range bodies {
		// The first two are themselves cut mid-body; the rest end where
		// their value ends, plus whitespace.
		whole := len(bytes.TrimRight(body, " \t\r\n"))
		for n := 0; n <= len(body); n++ {
			var qb QueryBatch
			complete := n >= whole && json.Valid(body)
			if qb.scan(body[:n], true) != complete {
				t.Fatalf("prefix %d of %d of %q: scanned = %v", n, len(body), body, !complete)
			}
		}
	}
}

// TestDecodeQueriesJSONPooledSlots sends a range body and then a point
// body through one QueryBatch, on every decoder pairing: the second
// request's omitted Lo, Hi and Name are zero, not the first request's.
func TestDecodeQueriesJSONPooledSlots(t *testing.T) {
	// Index 0 takes the scanner, index 1 (an escaped op) encoding/json.
	rangeBodies := []string{
		`{"queries":[{"name":"first","op":"range","lo":5,"hi":9},{"name":"first","op":"range","lo":6,"hi":8}]}`,
		`{"queries":[{"name":"first","op":"r\u0061nge","lo":5,"hi":9},{"name":"first","op":"range","lo":6,"hi":8}]}`,
	}
	pointBodies := []string{
		`{"queries":[{"op":"point","key":3}]}`,
		`{"queries":[{"op":"p\u006fint","key":3}]}`,
	}
	// Declined after the scanner has already written Lo and Hi.
	const dirty = `{"queries":[{"op":"range","lo":5,"hi":9,"key":1.0}]}`
	want := []Query{{Op: "point", Key: 3}}
	for _, withNames := range []bool{true, false} {
		for i, first := range rangeBodies {
			if !withNames {
				first = strings.ReplaceAll(first, `"name":"first",`, ``)
			}
			for j, second := range pointBodies {
				var qb QueryBatch
				if scanned, err := qb.DecodeJSON([]byte(first), withNames); err != nil || scanned != (i == 0) || len(qb.Queries) != 2 || qb.Queries[1].Lo != 6 {
					t.Fatalf("names %v, first body %d: scanned %v, err %v, %+v", withNames, i, scanned, err, qb.Queries)
				}
				if scanned, err := qb.DecodeJSON([]byte(second), withNames); err != nil || scanned != (j == 0) {
					t.Fatalf("names %v, second body %d: scanned %v, err %v", withNames, j, scanned, err)
				}
				if !reflect.DeepEqual(qb.Queries, want) {
					t.Errorf("names %v, decoders %d then %d: %+v, want %+v", withNames, i, j, qb.Queries, want)
				}
				if withNames && !reflect.DeepEqual(qb.Names, []string{""}) || !withNames && len(qb.Names) != 0 {
					t.Errorf("names %v, decoders %d then %d: names %q", withNames, i, j, qb.Names)
				}
				if scanned, err := qb.DecodeJSON([]byte(dirty), withNames); scanned || err == nil {
					t.Fatalf("dirty body: scanned %v, err %v", scanned, err)
				}
				if _, err := qb.DecodeJSON([]byte(second), withNames); err != nil || !reflect.DeepEqual(qb.Queries, want) {
					t.Errorf("names %v, body %d after a declined scan: %+v, %v", withNames, j, qb.Queries, err)
				}
			}
		}
	}
}

// TestDecodeQueriesJSONSteadyStateAllocs: a canonical body through a
// warmed QueryBatch allocates nothing, names included.
func TestDecodeQueriesJSONSteadyStateAllocs(t *testing.T) {
	for _, withNames := range []bool{true, false} {
		body := dashboardBody(t, 256, withNames)
		var qb QueryBatch
		decode := func() {
			if scanned, err := qb.DecodeJSON(body, withNames); !scanned || err != nil || len(qb.Queries) != 256 {
				t.Fatalf("scanned %v, err %v, %d queries", scanned, err, len(qb.Queries))
			}
		}
		decode()
		if a := testing.AllocsPerRun(20, decode); a != 0 {
			t.Errorf("names %v: %v allocations per steady-state decode, want 0", withNames, a)
		}
	}
}

// TestDecodeQueriesJSONInternBounded: distinct names cannot grow the
// intern table past its bound, and over-long names are never kept.
func TestDecodeQueriesJSONInternBounded(t *testing.T) {
	var qb QueryBatch
	for i := 0; i < 3*maxInterned; i++ {
		body := fmt.Sprintf(`{"queries":[{"name":"n%d"},{"name":"%s%d"}]}`, i, strings.Repeat("x", maxInternedLen), i)
		if scanned, _ := qb.DecodeJSON([]byte(body), true); !scanned || qb.Names[0] != fmt.Sprintf("n%d", i) {
			t.Fatalf("body %d: scanned %v, names %q", i, scanned, qb.Names)
		}
		if len(qb.interned) > maxInterned {
			t.Fatalf("intern table holds %d names, bound %d", len(qb.interned), maxInterned)
		}
	}
	for name := range qb.interned {
		if len(name) > maxInternedLen {
			t.Fatalf("interned a %d-byte name", len(name))
		}
	}
}

// TestDecodeJSONStrict: unknown fields and trailing bytes are errors,
// trailing whitespace is not.
func TestDecodeJSONStrict(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`{"a":1}`, true},
		{"{\"a\":1} \r\n\t" + strings.Repeat(" ", 9000), true},
		{`{"a":1,"b":2}`, false},
		{`{"a":1}}`, false},
		{`{"a":1}{"a":2}`, false},
		{`{"a":1} 2`, false},
		{`{"a":1}` + strings.Repeat(" ", 9000) + `"`, false},
		{`{"a":1}'`, false},
		{`{"a":`, false},
		{``, false},
	} {
		var v struct {
			A int `json:"a"`
		}
		if err := DecodeJSONStrict(strings.NewReader(tc.in), &v); (err == nil) != tc.ok {
			t.Errorf("%q: err = %v, want ok %v", tc.in, err, tc.ok)
		}
	}
}

// FuzzDecodeQueriesJSON: for any input, with and without names, a scan
// that accepts implies strict encoding/json accepts and decodes the same
// values. The decline path is the oracle, so there is nothing else the
// scanner could get wrong.
func FuzzDecodeQueriesJSON(f *testing.F) {
	for _, withNames := range []bool{true, false} {
		// The benchmark's shape at 16 queries: the 11 KB body of 256 is
		// TestDecodeQueriesJSONGrammar's, because the fuzzer spends its
		// whole budget minimizing every mutation of a seed that large.
		canonical := dashboardBody(f, 16, withNames)
		f.Add(canonical)
		f.Add(prettyBody(f, canonical))
	}
	for _, body := range declinedBodies {
		f.Add([]byte(body))
	}
	for _, body := range acceptedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstStd(t, body, true)
		checkAgainstStd(t, body, false)
	})
}

var sinkQueries int

// BenchmarkDecodeQueriesJSON is the router's decode of the benchmark's
// 256-query body, scanner against the encoding/json call it replaced.
func BenchmarkDecodeQueriesJSON(b *testing.B) {
	body := dashboardBody(b, 256, true)
	b.Run("scan", func(b *testing.B) {
		var qb QueryBatch
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if !qb.scan(body, true) {
				b.Fatal("declined")
			}
			sinkQueries += len(qb.Queries)
		}
	})
	b.Run("std", func(b *testing.B) {
		var req struct {
			Queries []namedQuery `json:"queries"`
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			clear(req.Queries[:cap(req.Queries)])
			req.Queries = req.Queries[:0]
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
			sinkQueries += len(req.Queries)
		}
	})
}

// updatesBody is the benchmark's serve_mixed write body: json.Marshal of
// n uniform keys over 2^20, three insertions to one deletion (a map, so
// "flush" comes first).
func updatesBody(tb testing.TB, n int) []byte {
	tb.Helper()
	updates := make([]KeyUpdate, n)
	for i := range updates {
		updates[i] = KeyUpdate{Key: int64(i) * 786433 % (1 << 20), Delta: 1}
		if i%4 == 3 {
			updates[i].Delta = -1
		}
	}
	body, err := json.Marshal(map[string]any{"updates": updates, "flush": false})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// declinedUpdateBodies are outside the updates grammar, one per rule.
var declinedUpdateBodies = []string{
	`{"updates":[{"key":1,"delta":-0}]}`,               // -0: ParseFloat keeps the sign
	`{"updates":[{"key":1,"delta":9007199254740993}]}`, // 2^53+1
	`{"updates":[{"key":1,"delta":-9007199254740993}]}`,
	`{"updates":[{"key":1234567890123456789,"delta":1}]}`, // 19 digits
	`{"updates":[{"key":1,"delta":1.0}]}`,
	`{"updates":[{"key":1,"delta":0.5}]}`,
	`{"updates":[{"key":1,"delta":1e3}]}`,
	`{"updates":[{"key":1.0,"delta":1}]}`,
	`{"updates":[{"Key":1,"delta":1}]}`, // case variant
	`{"Updates":[{"key":1,"delta":1}]}`,
	`{"updates":[{"key":1,"delta":1}],"Flush":true}`,
	`{"updates":[{"key":1,"key":2,"delta":1}]}`, // duplicate members
	`{"updates":[{"key":1,"delta":1,"delta":2}]}`,
	`{"updates":[],"updates":[{"key":1}]}`,
	`{"flush":true,"flush":false}`,
	`{"updates":[{"key":1,"delta":1,"bogus":1}]}`, // unknown members
	`{"updates":[],"bogus":1}`,
	`{"updates":null}`, // null
	`{"updates":[null]}`,
	`{"updates":[{"key":null}]}`,
	`{"flush":null}`,
	`{"updates":[{"key":1,"delta":1}]}}`, // trailing bytes
	`{"updates":[]} x`,
	"{\"updates\":[]}\x00",
	`{"updates":[]}{}`,
	`{"updates":[{"key":"1","delta":1}]}`, // wrong types
	`{"updates":[{"key":1,"delta":true}]}`,
	`{"flush":1}`,
	`{"flush":"true"}`,
	`{"flush":truex}`,
	`{"flush":tru}`,
	`{"updates":{"key":1}}`,
	`[{"key":1,"delta":1}]`,
	`{"updates":[{"key":1,"delta":1},]}`, // trailing commas
	`{"updates":[{"key":1,"delta":1,}]}`,
	`{"updates":[],}`,
	`{"updates":[{"key":1,"delta":1}]`, // truncated
	`{"updates":[{"key":1,"delta":`,
	``,
	`{"updates":[{"key":01,"delta":1}]}`,
	`{"updates":[{"key":1,"delta":+1}]}`,
	`{"updates":[{"key":1,"delta":1}]` + "\v" + `}`, // not JSON whitespace
}

// acceptedUpdateBodies are inside the updates grammar.
var acceptedUpdateBodies = []string{
	`{}`,
	`{"updates":[]}`,
	`{"flush":true}`,
	`{"updates":[{}]}`,
	`{"updates":[{"key":-0,"delta":0}]}`,
	`{"updates":[{"key":-5,"delta":-3}]}`, // the handler refuses the key, not the decoder
	`{"updates":[{"key":1,"delta":9007199254740992},{"key":2,"delta":-9007199254740992}]}`, // ±2^53
	`{"updates":[{"delta":7,"key":999999999999999999}],"flush":false}`,                     // 18 digits
	`{"flush":true,"updates":[{"key":3,"delta":1}]}`,
	" \t\r\n{ \"updates\" :\n[ {\n\t\"key\" : 1 ,\n\t\"delta\" : -2\n} , { } ] ,\r\n\"flush\" : true }\n\n",
}

// checkUpdatesAgainstStd is the updates decoder's contract on one body:
// a scan that accepts has decoded what strict encoding/json decodes, key
// for key, delta bits for delta bits and flush for flush.
func checkUpdatesAgainstStd(t *testing.T, body []byte) (scanned bool) {
	t.Helper()
	var fast, std UpdateBatch
	scanned = fast.scan(body)
	err := std.decodeStd(body)
	if !scanned {
		return false
	}
	if err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", body, err)
	}
	if len(fast.Updates) != len(std.Updates) || fast.Flush != std.Flush {
		t.Fatalf("%q: scan %d updates flush %v, std %d flush %v", body, len(fast.Updates), fast.Flush, len(std.Updates), std.Flush)
	}
	for i, u := range fast.Updates {
		if w := std.Updates[i]; u.Key != w.Key || math.Float64bits(u.Delta) != math.Float64bits(w.Delta) {
			t.Fatalf("%q: update %d scan %+v, std %+v", body, i, u, w)
		}
	}
	return true
}

func TestDecodeUpdatesJSONGrammar(t *testing.T) {
	canonical := updatesBody(t, 64)
	for _, body := range [][]byte{canonical, prettyBody(t, canonical)} {
		if !checkUpdatesAgainstStd(t, body) {
			t.Fatalf("canonical body declined: %.80q", body)
		}
	}
	for _, body := range acceptedUpdateBodies {
		if !checkUpdatesAgainstStd(t, []byte(body)) {
			t.Errorf("declined %q", body)
		}
	}
	for _, body := range declinedUpdateBodies {
		if checkUpdatesAgainstStd(t, []byte(body)) {
			t.Errorf("accepted %q", body)
		}
	}
	for n := range len(canonical) {
		if checkUpdatesAgainstStd(t, canonical[:n]) {
			t.Errorf("accepted a truncation to %d bytes", n)
		}
	}
}

// TestDecodeUpdatesJSONPooledSlots: a pooled UpdateBatch reused for a
// declined body that omits a member must not keep an earlier body's value
// there, and one reused for a scanned body must not keep the flush.
func TestDecodeUpdatesJSONPooledSlots(t *testing.T) {
	var ub UpdateBatch
	if scanned, err := ub.DecodeJSON([]byte(`{"updates":[{"key":4,"delta":9}],"flush":true}`)); !scanned || err != nil {
		t.Fatalf("scanned %v, err %v", scanned, err)
	}
	if scanned, err := ub.DecodeJSON([]byte(`{"updates":[{"key":5,"delta":0.5},{"key":6}]}`)); scanned || err != nil {
		t.Fatalf("scanned %v, err %v", scanned, err)
	}
	if want := []KeyUpdate{{Key: 5, Delta: 0.5}, {Key: 6}}; !reflect.DeepEqual(ub.Updates, want) || ub.Flush {
		t.Fatalf("std decode over a pooled batch: %+v flush %v, want %+v", ub.Updates, ub.Flush, want)
	}
	ub.Flush = true
	if scanned, err := ub.DecodeJSON([]byte(`{"updates":[{"delta":2}]}`)); !scanned || err != nil {
		t.Fatalf("scanned %v, err %v", scanned, err)
	}
	if want := []KeyUpdate{{Delta: 2}}; !reflect.DeepEqual(ub.Updates, want) || ub.Flush {
		t.Fatalf("scan over a pooled batch: %+v flush %v, want %+v", ub.Updates, ub.Flush, want)
	}
	body := updatesBody(t, 64)
	if allocs := testing.AllocsPerRun(20, func() { ub.DecodeJSON(body) }); allocs != 0 {
		t.Errorf("scanning a 64-update body into a pooled batch allocates %.0f times", allocs)
	}
}

// FuzzDecodeUpdatesJSON: wherever the updates scanner accepts a body, it
// decodes what strict encoding/json decodes.
func FuzzDecodeUpdatesJSON(f *testing.F) {
	canonical := updatesBody(f, 8)
	f.Add(canonical)
	f.Add(prettyBody(f, canonical))
	for _, body := range declinedUpdateBodies {
		f.Add([]byte(body))
	}
	for _, body := range acceptedUpdateBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkUpdatesAgainstStd(t, body)
	})
}

// BenchmarkDecodeUpdatesJSON is the shard's decode of serve_mixed's
// 64-update body, scanner against the encoding/json call it replaced.
func BenchmarkDecodeUpdatesJSON(b *testing.B) {
	body := updatesBody(b, 64)
	b.Run("scan", func(b *testing.B) {
		var ub UpdateBatch
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if !ub.scan(body) {
				b.Fatal("declined")
			}
			sinkQueries += len(ub.Updates)
		}
	})
	b.Run("std", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req struct {
				Updates []KeyUpdate `json:"updates"`
				Flush   bool        `json:"flush,omitempty"`
			}
			if err := DecodeJSONStrict(bytes.NewReader(body), &req); err != nil {
				b.Fatal(err)
			}
			sinkQueries += len(req.Updates)
		}
	})
}
