// Command waveworker is one node of the distributed build fleet: it
// serves map assignments over HTTP and keeps itself registered with a
// wavehistd coordinator via heartbeats.
//
// Usage:
//
//	wavehistd -addr :8080 -dist                 # the coordinator
//	waveworker -coordinator http://host:8080 -addr :9090
//	waveworker -coordinator http://host:8080 -addr :9091 -capacity 4
//
// Each worker materializes registered datasets locally from their
// deterministic generation recipes (the distributed analogue of HDFS
// data locality), runs the assigned splits' map side, and returns
// mergeable partial summaries. Multi-round builds (H-WTopk) additionally
// persist per-job state leases between rounds — inspect them with
// GET /dist/v1/state; they are dropped on the coordinator's release RPC
// or after five idle minutes. Computed partials are kept in a 128 MiB
// cache, so a repeat build re-ships them. Kill a worker mid-build: the
// coordinator re-assigns its splits (replaying earlier rounds on the new
// owner when state was lost) and the build completes unchanged.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wavelethist/dist"
	"wavelethist/internal/obs"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://localhost:8080", "coordinator base URL")
		addr        = flag.String("addr", ":9090", "listen address")
		advertise   = flag.String("advertise", "", "URL the coordinator should dial back (default http://<local-ip>:<port>)")
		capacity    = flag.Int("capacity", 2, "concurrent map assignments served")
		id          = flag.String("id", "", "worker id (default derived from the advertised address)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	flag.Parse()
	obs.ServeDebug(*debugAddr, log.Printf)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "waveworker:", err)
		os.Exit(1)
	}
	self := *advertise
	if self == "" {
		self = advertiseURL(ln.Addr())
	}
	wid := *id
	if wid == "" {
		wid = "worker-" + strings.TrimPrefix(strings.TrimPrefix(self, "http://"), "https://")
	}

	w := dist.NewWorker(wid, *capacity)
	srv := &http.Server{Handler: w.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() {
		log.Printf("waveworker %s: serving on %s (advertised %s)", wid, ln.Addr(), self)
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal("waveworker:", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := keepRegistered(ctx, *coordinator, dist.RegisterRequest{ID: wid, Addr: self, Capacity: *capacity}); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "waveworker:", err)
		os.Exit(1)
	}

	log.Printf("waveworker %s: shutting down", wid)
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(shutCtx)
}

// advertiseURL derives a dial-back URL from the listener address,
// substituting a routable host when listening on the wildcard.
func advertiseURL(a net.Addr) string {
	host, port, err := net.SplitHostPort(a.String())
	if err != nil {
		return "http://" + a.String()
	}
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = outboundIP()
	}
	return "http://" + net.JoinHostPort(host, port)
}

// outboundIP finds the local address a packet to a public host would use
// (no traffic is sent).
func outboundIP() string {
	conn, err := net.Dial("udp", "192.0.2.1:1")
	if err != nil {
		return "127.0.0.1"
	}
	defer conn.Close()
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		return "127.0.0.1"
	}
	return host
}

// keepRegistered registers with the coordinator (retrying until it is
// reachable) and then heartbeats at the advertised interval,
// re-registering whenever the coordinator forgets us (e.g. it was
// restarted). Returns when ctx is canceled; a non-nil error means
// registration never succeeded and ctx ended some other way.
func keepRegistered(ctx context.Context, coordinator string, req dist.RegisterRequest) error {
	client := &http.Client{Timeout: 5 * time.Second}
	interval, err := register(ctx, client, coordinator, req)
	for err != nil {
		log.Printf("waveworker %s: register: %v (retrying)", req.ID, err)
		select {
		case <-ctx.Done():
			return fmt.Errorf("never registered: %w", err)
		case <-time.After(2 * time.Second):
		}
		interval, err = register(ctx, client, coordinator, req)
	}
	log.Printf("waveworker %s: registered with %s (heartbeat %v)", req.ID, coordinator, interval)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			known, err := heartbeat(ctx, client, coordinator, req.ID)
			if err != nil {
				log.Printf("waveworker %s: heartbeat: %v", req.ID, err)
				continue
			}
			if !known {
				log.Printf("waveworker %s: coordinator forgot us; re-registering", req.ID)
				if _, err := register(ctx, client, coordinator, req); err != nil {
					log.Printf("waveworker %s: re-register: %v", req.ID, err)
				}
			}
		}
	}
}

// postFrame posts one binary protocol frame to the coordinator and
// returns the status and the raw reply.
func postFrame(ctx context.Context, c *http.Client, url string, frame []byte) (int, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", dist.ContentTypeBinary)
	hres, err := c.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer hres.Body.Close()
	raw, err := io.ReadAll(hres.Body)
	return hres.StatusCode, raw, err
}

// register announces the worker and returns the heartbeat interval the
// coordinator asked for.
func register(ctx context.Context, c *http.Client, coordinator string, req dist.RegisterRequest) (time.Duration, error) {
	code, raw, err := postFrame(ctx, c, coordinator+dist.PathRegister, dist.EncodeRegisterRequest(&req))
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("register rejected (HTTP %d %s)", code, http.StatusText(code))
	}
	resp, err := dist.DecodeRegisterResponse(raw)
	if err != nil {
		return 0, err
	}
	if !resp.OK {
		return 0, fmt.Errorf("register rejected")
	}
	if resp.HeartbeatMillis <= 0 {
		return 0, fmt.Errorf("register: coordinator advertised heartbeat interval %d ms", resp.HeartbeatMillis)
	}
	return time.Duration(resp.HeartbeatMillis) * time.Millisecond, nil
}

func heartbeat(ctx context.Context, c *http.Client, coordinator, id string) (known bool, err error) {
	code, raw, err := postFrame(ctx, c, coordinator+dist.PathHeartbeat, dist.EncodeHeartbeatRequest(&dist.HeartbeatRequest{ID: id}))
	if err != nil {
		return false, err
	}
	resp, err := dist.DecodeHeartbeatResponse(raw)
	if err != nil {
		return false, fmt.Errorf("HTTP %d: %w", code, err)
	}
	return code == http.StatusOK && resp.OK, nil
}
