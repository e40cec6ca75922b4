package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wavelethist"
	"wavelethist/dist"
)

// postBody posts one body and returns the status and the raw reply.
func postBody(t *testing.T, url, contentType string, body io.Reader) (int, []byte) {
	t.Helper()
	hres, err := http.Post(url, contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	raw, err := io.ReadAll(hres.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hres.StatusCode, raw
}

// postFrame is a minimal client for the coordinator endpoints.
func postFrame(t *testing.T, url string, frame []byte) (int, []byte) {
	t.Helper()
	return postBody(t, url, dist.ContentTypeBinary, bytes.NewReader(frame))
}

// registerWorker registers over HTTP and returns the decoded ack.
func registerWorker(t *testing.T, coordURL string, req dist.RegisterRequest) (int, *dist.RegisterResponse) {
	t.Helper()
	code, raw := postFrame(t, coordURL+dist.PathRegister, dist.EncodeRegisterRequest(&req))
	reg, err := dist.DecodeRegisterResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return code, reg
}

// heartbeatWorker heartbeats over HTTP and returns the decoded ack.
func heartbeatWorker(t *testing.T, coordURL, id string) (int, *dist.HeartbeatResponse) {
	t.Helper()
	code, raw := postFrame(t, coordURL+dist.PathHeartbeat, dist.EncodeHeartbeatRequest(&dist.HeartbeatRequest{ID: id}))
	hb, err := dist.DecodeHeartbeatResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	return code, hb
}

// TestHTTPFleet runs a distributed build over real sockets: two worker
// HTTP servers register with a coordinator HTTP endpoint, heartbeat, and
// serve map RPCs via the HTTP transport.
func TestHTTPFleet(t *testing.T) {
	coord := dist.NewCoordinator(dist.NewHTTPTransport(), dist.Config{})
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	for _, id := range []string{"w0", "w1"} {
		w := dist.NewWorker(id, 2)
		wsrv := httptest.NewServer(w.Handler())
		defer wsrv.Close()
		code, reg := registerWorker(t, coordSrv.URL, dist.RegisterRequest{ID: id, Addr: wsrv.URL, Capacity: 2})
		if code != http.StatusOK || !reg.OK || reg.HeartbeatMillis <= 0 {
			t.Fatalf("register %s: code=%d resp=%+v", id, code, reg)
		}
		if code, hb := heartbeatWorker(t, coordSrv.URL, id); code != http.StatusOK || !hb.OK {
			t.Fatalf("heartbeat %s: code=%d resp=%+v", id, code, hb)
		}
	}
	// Unknown workers are told to re-register.
	if code, hb := heartbeatWorker(t, coordSrv.URL, "ghost"); code != http.StatusNotFound || hb.OK {
		t.Fatalf("ghost heartbeat: code=%d resp=%+v", code, hb)
	}
	if got := coord.AliveWorkers(); got != 2 {
		t.Fatalf("alive: got %d, want 2", got)
	}

	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 14, Domain: 1 << 10, Alpha: 1.1, Seed: 3, ChunkSize: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := wavelethist.Options{K: 20, Seed: 3}
	want, err := wavelethist.Build(ds, wavelethist.TwoLevelS, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.TwoLevelS, opts, coord)
	if err != nil {
		t.Fatal(err)
	}
	sameHistogram(t, want, got)
	if got.WireBytes <= 0 {
		t.Errorf("wire bytes not measured: %d", got.WireBytes)
	}

	// Fleet listing over HTTP.
	hres, err := http.Get(coordSrv.URL + dist.PathWorkers)
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	var list dist.WorkersResponse
	if err := json.NewDecoder(hres.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 2 {
		t.Fatalf("workers listing: got %d, want 2", len(list.Workers))
	}
}

// zeros is an endless stream of zero bytes: an oversize body that costs
// the test no memory.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestHTTPPostRoutesRejectBadBodies pins the input contract of the four
// POST routes: a body that is not declared as a binary frame is a 415, one
// over the route's limit a 413, one that does not decode (or decodes to a
// request missing its id) a 400 — and every refusal is itself a frame of
// the route's response type, so a client decodes errors the way it
// decodes answers. The map route's frame carries the reason as text,
// which HTTPTransport puts in the error it returns.
func TestHTTPPostRoutesRejectBadBodies(t *testing.T) {
	coordSrv := httptest.NewServer(dist.NewCoordinator(dist.NewHTTPTransport(), dist.Config{}).Handler())
	defer coordSrv.Close()
	workerSrv := httptest.NewServer(dist.NewWorker("w", 1).Handler())
	defer workerSrv.Close()

	const (
		mapLimit     = 64 << 20
		controlLimit = 64 << 10
	)
	routes := []struct {
		url     string
		limit   int64
		valid   []byte // a well-formed frame the route would accept
		noID    []byte // decodes, but names nobody
		refusal func([]byte) (okFlag bool, msg string, err error)
	}{
		{
			url: workerSrv.URL + dist.PathMap, limit: mapLimit,
			valid: dist.EncodeMapRequest(&dist.MapRequest{JobID: "j", Method: "Send-V"}),
			refusal: func(b []byte) (bool, string, error) {
				r, err := dist.DecodeMapResponse(b)
				if err != nil {
					return false, "", err
				}
				return r.Error == "", r.Error, nil
			},
		},
		{
			url: workerSrv.URL + dist.PathRelease, limit: controlLimit,
			valid: dist.EncodeReleaseRequest(&dist.ReleaseRequest{JobID: "j"}),
			noID:  dist.EncodeReleaseRequest(&dist.ReleaseRequest{}),
			refusal: func(b []byte) (bool, string, error) {
				r, err := dist.DecodeReleaseResponse(b)
				if err != nil {
					return false, "", err
				}
				return r.OK, "", nil
			},
		},
		{
			url: coordSrv.URL + dist.PathRegister, limit: controlLimit,
			valid: dist.EncodeRegisterRequest(&dist.RegisterRequest{ID: "w", Addr: "http://x"}),
			noID:  dist.EncodeRegisterRequest(&dist.RegisterRequest{Addr: "http://x"}),
			refusal: func(b []byte) (bool, string, error) {
				r, err := dist.DecodeRegisterResponse(b)
				if err != nil {
					return false, "", err
				}
				return r.OK, "", nil
			},
		},
		{
			url: coordSrv.URL + dist.PathHeartbeat, limit: controlLimit,
			valid: dist.EncodeHeartbeatRequest(&dist.HeartbeatRequest{ID: "w"}),
			noID:  dist.EncodeHeartbeatRequest(&dist.HeartbeatRequest{}),
			refusal: func(b []byte) (bool, string, error) {
				r, err := dist.DecodeHeartbeatResponse(b)
				if err != nil {
					return false, "", err
				}
				return r.OK, "", nil
			},
		},
	}
	type refused struct {
		name        string
		contentType string
		body        io.Reader
		want        int
		wantMsg     string // substring of the map route's framed reason
	}
	for _, rt := range routes {
		cases := []refused{
			{"json content type", "application/json", bytes.NewReader(rt.valid), http.StatusUnsupportedMediaType, dist.ContentTypeBinary},
			{"no content type", "", bytes.NewReader(rt.valid), http.StatusUnsupportedMediaType, dist.ContentTypeBinary},
			{"oversize", dist.ContentTypeBinary, io.LimitReader(zeros{}, rt.limit+1), http.StatusRequestEntityTooLarge, "exceeds"},
			{"truncated frame", dist.ContentTypeBinary, bytes.NewReader(rt.valid[:len(rt.valid)-1]), http.StatusBadRequest, "bad map request"},
			{"not a frame", dist.ContentTypeBinary, strings.NewReader(`{"id":"w"}`), http.StatusBadRequest, "bad map request"},
		}
		if rt.noID != nil {
			cases = append(cases, refused{"missing id", dist.ContentTypeBinary, bytes.NewReader(rt.noID), http.StatusBadRequest, ""})
		}
		for _, c := range cases {
			code, raw := postBody(t, rt.url, c.contentType, c.body)
			if code != c.want {
				t.Errorf("%s, %s: HTTP %d, want %d", rt.url, c.name, code, c.want)
				continue
			}
			ok, msg, err := rt.refusal(raw)
			if err != nil {
				t.Errorf("%s, %s: refusal is not a response frame: %v", rt.url, c.name, err)
				continue
			}
			if ok {
				t.Errorf("%s, %s: refusal frame reports success", rt.url, c.name)
			}
			if rt.limit == mapLimit && !strings.Contains(msg, c.wantMsg) {
				t.Errorf("%s, %s: framed reason %q, want it to mention %q", rt.url, c.name, msg, c.wantMsg)
			}
		}
	}

	// The transport surfaces a refusal as text: the framed reason on the
	// map route, the status on release. A hop that drops the Content-Type
	// stands in for a peer that does not speak the protocol.
	worker := dist.NewWorker("w2", 1).Handler()
	stripped := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		r.Header.Del("Content-Type")
		worker.ServeHTTP(rw, r)
	}))
	defer stripped.Close()
	tr := dist.NewHTTPTransport()
	_, _, _, err := tr.MapSplits(context.Background(), stripped.URL, &dist.MapRequest{JobID: "j", Method: "Send-V"})
	if err == nil || !strings.Contains(err.Error(), "HTTP 415") || !strings.Contains(err.Error(), "takes "+dist.ContentTypeBinary) {
		t.Errorf("refused MapSplits error = %v, want HTTP 415 with the framed reason", err)
	}
	err = tr.Release(context.Background(), stripped.URL, &dist.ReleaseRequest{JobID: "j"})
	if err == nil || !strings.Contains(err.Error(), "HTTP 415 Unsupported Media Type") {
		t.Errorf("refused Release error = %v, want HTTP 415 Unsupported Media Type", err)
	}
}

// TestHTTPWarmBuild: a repeat build over real sockets is served from the
// workers' partial caches — zero splits recomputed — and the binary wire
// bytes stay within 1.2× of the modeled communication.
func TestHTTPWarmBuild(t *testing.T) {
	coord := dist.NewCoordinator(dist.NewHTTPTransport(), dist.Config{})
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()
	for _, id := range []string{"w0", "w1"} {
		w := dist.NewWorker(id, 2)
		wsrv := httptest.NewServer(w.Handler())
		defer wsrv.Close()
		coord.Register(id, wsrv.URL, 2)
	}
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 15, Domain: 1 << 10, Alpha: 1.1, Seed: 3, ChunkSize: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := wavelethist.Options{K: 20, Seed: 3}
	cold, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.SendV, opts, coord)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CachedSplits != 0 {
		t.Fatalf("cold build cached %d splits", cold.CachedSplits)
	}
	if float64(cold.WireBytes) > 1.2*float64(cold.ModelCommBytes) {
		t.Errorf("binary wire bytes %d exceed 1.2x model %d", cold.WireBytes, cold.ModelCommBytes)
	}
	warm, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.SendV, opts, coord)
	if err != nil {
		t.Fatal(err)
	}
	splits := ds.NumSplits(0)
	if warm.CachedSplits != splits {
		t.Errorf("warm build cached %d of %d splits", warm.CachedSplits, splits)
	}
	sameHistogram(t, cold, warm)
}

// TestHTTPFleetMultiRound runs the three-round H-WTopk over real sockets:
// round broadcasts, state leases and the release RPC all cross HTTP, and
// the result matches the simulated build bit-for-bit.
func TestHTTPFleetMultiRound(t *testing.T) {
	coord := dist.NewCoordinator(dist.NewHTTPTransport(), dist.Config{})
	coordSrv := httptest.NewServer(coord.Handler())
	defer coordSrv.Close()

	var workerSrvs []*httptest.Server
	for _, id := range []string{"w0", "w1"} {
		w := dist.NewWorker(id, 2)
		wsrv := httptest.NewServer(w.Handler())
		defer wsrv.Close()
		workerSrvs = append(workerSrvs, wsrv)
		if code, _ := registerWorker(t, coordSrv.URL, dist.RegisterRequest{ID: id, Addr: wsrv.URL, Capacity: 2}); code != http.StatusOK {
			t.Fatalf("register %s: %d", id, code)
		}
	}

	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 14, Domain: 1 << 10, Alpha: 1.1, Seed: 3, ChunkSize: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := wavelethist.Options{K: 20, Seed: 3}
	want, err := wavelethist.Build(ds, wavelethist.HWTopk, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.HWTopk, opts, coord)
	if err != nil {
		t.Fatal(err)
	}
	sameHistogram(t, want, got)
	if got.Rounds != 3 || got.WireBytes <= 0 {
		t.Errorf("rounds=%d wire=%d", got.Rounds, got.WireBytes)
	}

	// The release RPC crossed the wire too: no worker holds a lease.
	for _, wsrv := range workerSrvs {
		hres, err := http.Get(wsrv.URL + dist.PathState)
		if err != nil {
			t.Fatal(err)
		}
		var ws dist.WorkerStateResponse
		if err := json.NewDecoder(hres.Body).Decode(&ws); err != nil {
			t.Fatal(err)
		}
		hres.Body.Close()
		if len(ws.Leases) != 0 {
			t.Errorf("worker %s still holds %d leases", ws.ID, len(ws.Leases))
		}
	}
}
