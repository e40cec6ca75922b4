// Command waverouter fronts a sharded, replicated wavehistd cluster: it
// routes per-histogram requests to the shard owning the name (consistent
// hashing, so every router agrees without coordination), retries reads
// against a shard's replicas when its primary is down, and fans
// list/stats/cross-shard batch requests out over the whole fleet.
//
// Topology is given with -shards: shards are separated by ';', and
// within a shard the first URL is the primary, the rest read replicas.
//
// Usage:
//
//	wavehistd -addr :8081 -shard s0                      # shard 0 primary
//	wavehistd -addr :8082 -replica-of http://localhost:8081
//	wavehistd -addr :8083 -shard s1                      # shard 1 primary
//	waverouter -addr :8080 \
//	  -shards 'http://localhost:8081,http://localhost:8082;http://localhost:8083'
//
// Then query the cluster through the router:
//
//	curl localhost:8080/v1/hist
//	curl 'localhost:8080/v1/hist/demo/point?key=42'
//	curl -d '{"queries":[{"name":"a","op":"point","key":7},{"name":"b","op":"range","lo":0,"hi":99}]}' \
//	     localhost:8080/v1/query
//	curl localhost:8080/v1/router                        # topology + failover counters
//
// With -probe-every the router becomes self-healing: it probes every
// target's /healthz, marks primaries down after three consecutive
// failures, auto-promotes the most caught-up replica with an epoch
// fencing token, and demotes a resurrected old primary read-only before
// it can split the write lineage. Proxied reads time out after 2s,
// mutations after 60s.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wavelethist/ha"
	"wavelethist/internal/obs"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		shards       = flag.String("shards", "", "cluster topology: shards separated by ';', URLs within a shard by ',' (first = primary, rest = replicas)")
		debugAddr    = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		coalesceWait = flag.Duration("coalesce-wait", 250*time.Microsecond, "merge single-query GETs for the same histogram arriving within this window into one shard batch of at most 256 (0 = off)")
		probeEvery   = flag.Duration("probe-every", 0, "health-probe every shard target on this interval and auto-promote the most caught-up replica when a primary dies (0 = static topology, no probing)")
	)
	flag.Parse()

	rt, err := newRouter(*shards, ha.RouterConfig{
		CoalesceWait:  *coalesceWait,
		ProbeInterval: *probeEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "waverouter:", err)
		os.Exit(1)
	}
	defer rt.Close()
	obs.ServeDebug(*debugAddr, log.Printf)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("waverouter: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "waverouter:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Print("waverouter: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			srv.Close()
		}
	}
}

// newRouter parses the -shards topology into a ha.Router. Shard IDs are
// s0, s1, … in flag order, so placement is stable as long as the flag
// lists shards in the same order on every router.
func newRouter(spec string, cfg ha.RouterConfig) (*ha.Router, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("-shards is required (e.g. 'http://p1,http://r1;http://p2')")
	}
	var shards []ha.Shard
	for i, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		var urls []string
		for _, u := range strings.Split(group, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			continue
		}
		shards = append(shards, ha.Shard{
			ID:       fmt.Sprintf("s%d", i),
			Primary:  urls[0],
			Replicas: urls[1:],
		})
	}
	return ha.NewRouterConfig(shards, cfg)
}
