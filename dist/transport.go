package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Transport delivers coordinator→worker RPCs. MapSplits reports the
// measured request and response payload sizes so the coordinator can
// account real communication, not a model. Release frees a worker's
// per-job state lease when a multi-round build ends.
type Transport interface {
	MapSplits(ctx context.Context, addr string, req *MapRequest) (resp *MapResponse, reqBytes, respBytes int64, err error)
	Release(ctx context.Context, addr string, req *ReleaseRequest) error
}

// HTTPTransport dials workers over real sockets, speaking the binary
// wire format (codec.go) and nothing else.
type HTTPTransport struct {
	// Client is the HTTP client (nil = http.DefaultClient); per-RPC
	// deadlines come from the caller's context.
	Client *http.Client
}

// NewHTTPTransport returns a Transport over http.DefaultClient.
func NewHTTPTransport() *HTTPTransport { return &HTTPTransport{} }

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// post sends one binary frame and returns the raw response body.
func (t *HTTPTransport) post(ctx context.Context, url string, frame []byte) (status int, respBody []byte, err error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", ContentTypeBinary)
	hres, err := t.client().Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer hres.Body.Close()
	rb, err := io.ReadAll(hres.Body)
	return hres.StatusCode, rb, err
}

// MapSplits implements Transport.
func (t *HTTPTransport) MapSplits(ctx context.Context, addr string, req *MapRequest) (*MapResponse, int64, int64, error) {
	body := EncodeMapRequest(req)
	status, rb, err := t.post(ctx, addr+PathMap, body)
	if err != nil {
		return nil, int64(len(body)), int64(len(rb)), err
	}
	resp, derr := DecodeMapResponse(rb)
	if status != http.StatusOK {
		// Workers frame their errors; anything else (a proxy's HTML, a
		// panic page) is shown raw.
		msg := truncate(rb)
		if derr == nil {
			msg = resp.Error
		}
		return nil, int64(len(body)), int64(len(rb)), fmt.Errorf("dist: worker %s: HTTP %d: %s", addr, status, msg)
	}
	if derr != nil {
		return nil, int64(len(body)), int64(len(rb)), fmt.Errorf("dist: worker %s: bad response: %w", addr, derr)
	}
	return resp, int64(len(body)), int64(len(rb)), nil
}

// Release implements Transport.
func (t *HTTPTransport) Release(ctx context.Context, addr string, req *ReleaseRequest) error {
	status, _, err := t.post(ctx, addr+PathRelease, EncodeReleaseRequest(req))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("dist: worker %s: HTTP %d %s", addr, status, http.StatusText(status))
	}
	return nil
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// LoopbackScheme prefixes in-process worker addresses.
const LoopbackScheme = "loopback://"

// Loopback is an in-process Transport: worker handlers are invoked
// directly, with request/response sizes measured on the binary frames
// that would cross the wire, so loopback builds report the same
// communication a socketed fleet would. Non-loopback addresses are
// delegated to Fallback, letting one coordinator drive a mixed fleet of
// in-process and remote workers.
type Loopback struct {
	// Fallback handles non-loopback:// addresses (nil = reject them).
	Fallback Transport

	mu      sync.Mutex
	workers map[string]*Worker
	calls   map[string]int
	// killAt < 0 means alive; otherwise calls beyond killAt fail — the
	// test harness for worker crashes mid-build.
	killAt map[string]int
	// crashWhen crashes addr permanently on the first map request the
	// predicate matches — a surgical mid-round crash (e.g. "die on the
	// first round-2 assignment").
	crashWhen map[string]func(*MapRequest) bool
}

// NewLoopback returns an empty loopback transport.
func NewLoopback() *Loopback {
	return &Loopback{
		workers:   make(map[string]*Worker),
		calls:     make(map[string]int),
		killAt:    make(map[string]int),
		crashWhen: make(map[string]func(*MapRequest) bool),
	}
}

// Add attaches an in-process worker at LoopbackScheme+name.
func (l *Loopback) Add(w *Worker) (addr string) {
	addr = LoopbackScheme + w.ID()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.workers[addr] = w
	l.killAt[addr] = -1
	return addr
}

// Kill makes every subsequent call to addr fail, like a dead TCP peer.
func (l *Loopback) Kill(addr string) { l.KillAfter(addr, 0) }

// KillAfter lets addr serve n more successful calls, then fail forever —
// a deterministic mid-build crash.
func (l *Loopback) KillAfter(addr string, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.killAt[addr] = l.calls[addr] + n
}

// CrashWhen crashes addr — permanently, like a killed process — on the
// first map request matching fn. Deterministic harness for mid-round
// failures of multi-round builds.
func (l *Loopback) CrashWhen(addr string, fn func(*MapRequest) bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.crashWhen[addr] = fn
}

// take resolves the worker for one call, applying crash simulation.
// req is nil for non-map calls (ping/release).
func (l *Loopback) take(addr string, req *MapRequest) (*Worker, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	w, ok := l.workers[addr]
	if !ok {
		return nil, fmt.Errorf("dist: no loopback worker at %s", addr)
	}
	if at := l.killAt[addr]; at >= 0 && l.calls[addr] >= at {
		return nil, fmt.Errorf("dist: worker %s: connection refused (killed)", addr)
	}
	if fn := l.crashWhen[addr]; fn != nil && req != nil && fn(req) {
		l.killAt[addr] = 0 // crash now and stay down
		return nil, fmt.Errorf("dist: worker %s: connection reset (crashed)", addr)
	}
	l.calls[addr]++
	return w, nil
}

// MapSplits implements Transport.
func (l *Loopback) MapSplits(ctx context.Context, addr string, req *MapRequest) (*MapResponse, int64, int64, error) {
	if !strings.HasPrefix(addr, LoopbackScheme) {
		if l.Fallback == nil {
			return nil, 0, 0, fmt.Errorf("dist: no transport for %s", addr)
		}
		return l.Fallback.MapSplits(ctx, addr, req)
	}
	reqBytes := int64(len(EncodeMapRequest(req)))
	w, err := l.take(addr, req)
	if err != nil {
		return nil, reqBytes, 0, err
	}
	resp, err := w.HandleMap(ctx, req)
	if err != nil {
		return nil, reqBytes, 0, err
	}
	return resp, reqBytes, int64(len(EncodeMapResponse(resp))), nil
}

// Release implements Transport.
func (l *Loopback) Release(ctx context.Context, addr string, req *ReleaseRequest) error {
	if !strings.HasPrefix(addr, LoopbackScheme) {
		if l.Fallback == nil {
			return fmt.Errorf("dist: no transport for %s", addr)
		}
		return l.Fallback.Release(ctx, addr, req)
	}
	w, err := l.take(addr, nil)
	if err != nil {
		return err
	}
	w.Release(req.JobID)
	return nil
}
