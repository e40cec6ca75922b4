package ha

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"wavelethist"
	"wavelethist/serve"
)

// getForms names each single-query GET form's parameters in echo order,
// by route and dimensionality.
var getForms = map[string][2][]string{
	"point": {{"key"}, {"x", "y"}},
	"range": {{"lo", "hi"}, {"xlo", "xhi", "ylo", "yhi"}},
}

// TestGetQueryContract pins the single-query GET contract in one table:
// every query string × {1D entry, 2D entry} × {the shard directly, a
// coalescing router in front of it}.
//   - The shard reads the entry's form and ignores the other form's
//     parameters. A 200 body is exactly what AppendEstimate renders from
//     the histogram's own estimate; any other status is {"error":…}.
//   - The coalescer answers byte for byte what the shard does, except for
//     the divergence coalesce.go documents: a complete form of the other
//     dimension, with none of the entry's own parameters, takes the batch
//     semantics (the entry's coordinates default to 0) and answers 200.
func TestGetQueryContract(t *testing.T) {
	s, shardTS := newNode(t, serve.Config{})
	h1 := buildTestHist(t, 61)
	h2 := buildTestHist2D(t, 64, 61)
	e1, err := s.Registry().Publish("one", h1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.Registry().Publish2D("two", h2)
	if err != nil {
		t.Fatal(err)
	}
	coal, err := NewRouterConfig([]Shard{{ID: "s0", Primary: shardTS.URL}},
		RouterConfig{CoalesceWait: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	coalTS := httptest.NewServer(coal)
	t.Cleanup(coalTS.Close)

	// estimate answers a query of the entry's own dimensionality; vals
	// holds its form's values in getForms order.
	estimate := func(twoD bool, route string, v []int64) float64 {
		switch {
		case route == "point" && !twoD:
			return h1.PointEstimate(v[0])
		case route == "point":
			return h2.PointEstimate(v[0], v[1])
		case !twoD:
			return h1.RangeCount(v[0], v[1])
		default:
			return h2.RangeCount(v[0], v[1], v[2], v[3])
		}
	}
	// form reports whether every parameter of the form parses as an
	// integer, with the values, and whether any of them is present.
	form := func(vals url.Values, names []string) (v []int64, complete, present bool) {
		complete = true
		for _, n := range names {
			present = present || vals.Has(n)
			x, err := strconv.ParseInt(vals.Get(n), 10, 64)
			complete = complete && err == nil
			v = append(v, x)
		}
		return v, complete, present
	}
	render := func(name string, version uint64, est float64, names []string, v []int64) string {
		fields := make([]serve.EstimateField, len(names))
		for i, n := range names {
			fields[i] = serve.EstimateField{Name: n, Value: v[i]}
		}
		return string(serve.AppendEstimate(nil, name, version, est, fields...))
	}

	type row struct {
		path   string // route and query string
		c1, c2 int    // the shard's status on the 1D and the 2D entry
	}
	rows := []row{
		// Each complete form.
		{"point?key=17", 200, 400},
		{"point?x=3&y=40", 400, 200},
		{"range?lo=10&hi=900", 200, 400},
		{"range?xlo=3&xhi=40&ylo=0&yhi=63", 400, 200},
		// Bounds follow the clamp contract; +5 and a repeated key parse.
		{"range?lo=900&hi=10", 200, 400},
		{"range?lo=-500&hi=99999", 200, 400},
		{"range?xlo=-9&xhi=999&ylo=60&yhi=2", 400, 200},
		{"point?key=%2B5", 200, 400},
		{"point?key=7&key=8", 200, 400},
		// A missing parameter.
		{"point", 400, 400},
		{"point?key=", 400, 400},
		{"point?x=3", 400, 400},
		{"range?lo=1", 400, 400},
		{"range?xlo=1&xhi=5&ylo=2", 400, 400},
		// A non-integer.
		{"point?key=notanint", 400, 400},
		{"point?key=1.5", 400, 400},
		{"point?key=9223372036854775808", 400, 400},
		{"point?x=3&y=zz", 400, 400},
		{"range?lo=0x10&hi=20", 400, 400},
		{"range?xlo=1&xhi=5&ylo=2&yhi=q", 400, 400},
		// Mixed forms: the shard reads the entry's form.
		{"point?key=1&x=2&y=3", 200, 200},
		{"point?key=1&x=2", 200, 400},
		{"point?key=bad&x=2&y=3", 400, 200},
		{"range?lo=1&hi=2&xlo=0", 200, 400},
		{"range?lo=1&hi=2&xlo=0&xhi=9&ylo=1&yhi=8", 200, 200},
		{"range?lo=1&xlo=0&xhi=9&ylo=1&yhi=8", 400, 200},
		// An off-domain key or cell is a per-query error.
		{"point?key=4096", 400, 400},
		{"point?key=-1", 400, 400},
		{"point?x=64&y=0", 400, 400},
		{"point?x=0&y=-1", 400, 400},
		// An unknown parameter name is ignored.
		{"point?key=3&bogus=1", 200, 400},
		{"point?bogus=1", 400, 400},
		{"range?lo=3&hi=9&bogus=x", 200, 400},
	}
	var wantCoalesced int64
	for _, r := range rows {
		route, rawQuery, _ := strings.Cut(r.path, "?")
		vals, err := url.ParseQuery(rawQuery)
		if err != nil {
			t.Fatal(err)
		}
		forms := getForms[route]
		v1D, ok1D, has1D := form(vals, forms[0])
		v2D, ok2D, has2D := form(vals, forms[1])
		coalesces := [2]bool{ok1D && !has2D, ok2D && !has1D}
		if coalesces[0] || coalesces[1] {
			wantCoalesced += 2
		}
		for d, e := range []*serve.Entry{e1, e2} {
			twoD := d == 1
			want := []int{r.c1, r.c2}[d]
			path := "/v1/hist/" + e.Name + "/" + r.path
			code, body := getBody(t, shardTS.URL+path)
			if code != want {
				t.Errorf("direct %s: HTTP %d, want %d: %s", path, code, want, body)
				continue
			}
			own, ownV := forms[d], [][]int64{v1D, v2D}[d]
			if code == http.StatusOK {
				if w := render(e.Name, e.Version, estimate(twoD, route, ownV), own, ownV); body != w {
					t.Errorf("direct %s:\n got %q\nwant %q", path, body, w)
				}
			} else if !isErrorBody(body) {
				t.Errorf("direct %s: HTTP %d body %q is not {\"error\":…}", path, code, body)
			}

			// The coalescer takes the one form that parses while no
			// parameter of the other form is present.
			wantCode, wantBody := code, body
			other := 1 - d
			if coalesces[other] {
				zero := make([]int64, len(own))
				wantCode = http.StatusOK
				wantBody = render(e.Name, e.Version, estimate(twoD, route, zero), forms[other], [][]int64{v1D, v2D}[other])
			}
			code, body = getBody(t, coalTS.URL+path)
			if code != wantCode || body != wantBody {
				t.Errorf("coalesced %s:\n got %d %q\nwant %d %q", path, code, body, wantCode, wantBody)
			}
		}
	}

	if n := coal.coalesced.Value(); n != wantCoalesced {
		t.Errorf("coalesced %d queries, want %d", n, wantCoalesced)
	}

	// An unknown histogram name is the shard's 404, coalesced or not.
	for _, p := range []string{"point?key=1", "range?xlo=1&xhi=2&ylo=3&yhi=4"} {
		code, body := getBody(t, shardTS.URL+"/v1/hist/ghost/"+p)
		if code != http.StatusNotFound || !isErrorBody(body) {
			t.Errorf("direct ghost/%s: HTTP %d %q", p, code, body)
		}
		if c, b := getBody(t, coalTS.URL+"/v1/hist/ghost/"+p); c != code || b != body {
			t.Errorf("coalesced ghost/%s: %d %q, direct %d %q", p, c, b, code, body)
		}
	}
}

// isErrorBody reports whether body is one JSON object holding exactly a
// non-empty "error" string.
func isErrorBody(body string) bool {
	var m map[string]any
	if json.Unmarshal([]byte(body), &m) != nil || len(m) != 1 {
		return false
	}
	msg, ok := m["error"].(string)
	return ok && msg != ""
}

func buildTestHist2D(t testing.TB, side int64, seed uint64) *wavelethist.Histogram2D {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	xs, ys := make([]int64, 4000), make([]int64, 4000)
	for i := range xs {
		xs[i], ys[i] = rng.Int63n(side), rng.Int63n(side)
	}
	ds, err := wavelethist.NewDataset2DFromPairs(xs, ys, side, 0, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wavelethist.Build2D(ds, wavelethist.SendV2D, wavelethist.Options{K: 128, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Histogram
}
