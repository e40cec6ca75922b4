package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Load generation. Every caller of this system — a planner thread, a
// dashboard, an ingest job — waits for its reply before it sends the next
// request, so load is a closed loop: `clients` goroutines, each repeating
// one operation back to back. A slow system therefore receives less load,
// and throughput is the inverse of mean latency; both are reported.

// latCap bounds the latency samples one lane keeps (8 MiB). The fastest
// lane, embed_batch, completes about 25k operations a second.
const latCap = 1 << 20

// nSlices cuts the timed phase into equal slices (half a second each in a
// real run). The host this benchmark was sized on is a shared VM whose
// capacity moves by 15% and more from one second to the next, with no
// steal time reported and the process's own CPU time per operation moving
// with it, so slow slices measure the neighbours, not the program. The
// disturbance only ever slows things down; a lane therefore reports its
// least disturbed slice — the highest slice rate and the lowest slice
// median — which over ten runs repeats two to four times more closely
// than the median of slices does. Anything periodic in the program itself
// (GC cycles, every fourth update request republishing) recurs many times
// within every slice and is in those numbers.
const nSlices = 20

// op performs the lane's i-th operation and reports whether the answer
// was correct.
type op func(i int) bool

// laneResult is what one lane did: latencies and per-slice counts of the
// timed phase, and totals over warm-up and timed phase together.
type laneResult struct {
	lat       []int64 // ns, operations that began and ended in the timed phase
	latSlice  []uint8 // the slice each latency sample ended in
	slices    [nSlices]int
	ops       int
	failed    int
	sliceSecs float64
}

// sliceRates is the lane's rate, operations a second, in each slice.
func (l *laneResult) sliceRates() []float64 {
	rates := make([]float64, nSlices)
	for i, n := range l.slices {
		rates[i] = float64(n) / l.sliceSecs
	}
	return rates
}

// sliceP50s is the median latency, in us, of each slice's operations (0
// for a slice in which none completed).
func (l *laneResult) sliceP50s() []float64 {
	var per [nSlices][]int64
	for i, d := range l.lat {
		per[l.latSlice[i]] = append(per[l.latSlice[i]], d)
	}
	out := make([]float64, nSlices)
	for i := range per {
		out[i] = summarize(per[i], 1e3).P50
	}
	return out
}

// closedLoop runs one goroutine per lane through a warm-up and a timed
// phase of secs seconds, timing every operation itself, and returns when
// all have stopped. Operation indexes keep counting across the two phases
// so request streams do not restart.
func closedLoop(ops []op, secs float64) []laneResult {
	warm, timed := phases(secs)
	res := make([]laneResult, len(ops))
	start := time.Now().Add(warm)
	end := start.Add(timed)
	slice := timed / nSlices
	var wg sync.WaitGroup
	for l := range ops {
		res[l].lat = make([]int64, 0, latCap)
		res[l].latSlice = make([]uint8, 0, latCap)
		res[l].sliceSecs = slice.Seconds()
		wg.Add(1)
		go func(r *laneResult, do op) {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				ok := do(i)
				t1 := time.Now()
				r.ops++
				if !ok {
					r.failed++
				}
				if t0.Before(start) || !t1.Before(end) {
					continue
				}
				at := t1.Sub(start) / slice
				r.slices[at]++
				if len(r.lat) < latCap {
					r.lat = append(r.lat, int64(t1.Sub(t0)))
					r.latSlice = append(r.latSlice, uint8(at))
				}
			}
		}(&res[l], ops[l])
	}
	wg.Wait()
	return res
}

// newTransport is the load generator's own transport: one keep-alive
// connection per client and nothing shared with the program under test.
// http.DefaultTransport is what the router uses, so using it here would
// let the harness and the router compete for the same idle-connection
// slots.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}
}

// httpLane is one client's connection state: requests are built without
// allocation-heavy helpers and responses are read into one reused buffer,
// so the harness adds as little as it can to what it measures
// (client.stub_* report what is left).
type httpLane struct {
	client *http.Client
	buf    []byte
	body   bodyReader
}

func newHTTPLane(tr *http.Transport) *httpLane {
	return &httpLane{client: &http.Client{Transport: tr}, buf: make([]byte, 0, 64<<10)}
}

// bodyReader is a resettable request body.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// get sends a pre-built GET request. A request may be reused once the
// previous response's body has been closed, which do always does.
func (h *httpLane) get(req *http.Request) (int, []byte, error) { return h.do(req) }

// post sends body to u.
func (h *httpLane) post(u *url.URL, body []byte) (int, []byte, error) {
	h.body.Reset(body)
	return h.do(postLiteral(u, &h.body, len(body)))
}

// postLiteral is a JSON POST of n bytes as a literal: http.NewRequest
// would re-parse the URL and allocate a context and body wrappers per
// call. It serves as a client request and, handed straight to a handler,
// as a server one.
func postLiteral(u *url.URL, body *bodyReader, n int) *http.Request {
	return &http.Request{
		Method: http.MethodPost, URL: u, Host: u.Host, Header: jsonHeader,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Body: body, ContentLength: int64(n),
	}
}

func (h *httpLane) do(req *http.Request) (int, []byte, error) {
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b := h.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return resp.StatusCode, nil, err
		}
	}
	h.buf = b
	return resp.StatusCode, b, nil
}

// mustGet pre-builds a GET request for a URL the benchmark generated.
func mustGet(rawURL string) *http.Request {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		panic(fmt.Sprintf("benchmark generated a bad URL %q: %v", rawURL, err))
	}
	return req
}

func mustURL(raw string) *url.URL {
	u, err := url.Parse(raw)
	if err != nil {
		panic(fmt.Sprintf("benchmark generated a bad URL %q: %v", raw, err))
	}
	return u
}

// httpNode is one in-process daemon: the handler the real binary would
// mount, served over a real TCP socket on the loopback interface with the
// daemons' own http.Server settings. newConns counts accepted
// connections, which is how upstream connection churn is observed without
// touching the router.
type httpNode struct {
	url      string
	hs       *http.Server
	done     chan struct{}
	newConns atomic.Int64
}

func serveTCP(h http.Handler) (*httpNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &httpNode{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.hs = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				n.newConns.Add(1)
			}
		},
	}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns ErrServerClosed from close
	}()
	return n, nil
}

// close stops the node and waits for its accept loop to end.
func (n *httpNode) close() {
	_ = n.hs.Close() // in-process listener on loopback; nothing to report
	<-n.done
}

// Response checks. The single-estimate endpoints answer
// {"name":…,"version":…,…,"estimate":<float>}\n with the float in
// encoding/json's shortest round-trip form, so parsing it back gives the
// served value bit for bit.

var (
	estimatePrefix = []byte(`{"name":"`)
	estimateKey    = []byte(`"estimate":`)
)

// estimateShape is the cheap check applied to every timed response.
func estimateShape(status int, body []byte) bool {
	return status == http.StatusOK && bytes.HasPrefix(body, estimatePrefix) && bytes.HasSuffix(body, []byte("}\n"))
}

// parseEstimate extracts the estimate of a single-estimate response.
func parseEstimate(body []byte) (float64, bool) {
	i := bytes.LastIndex(body, estimateKey)
	if i < 0 || len(body) < 2 {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(body[i+len(estimateKey):len(body)-2]), 64)
	return f, err == nil
}
