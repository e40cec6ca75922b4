// Command wavehistd serves wavelet histograms over HTTP: a versioned,
// concurrent registry behind the /v1 JSON API of package serve, with
// optional distributed builds over a waveworker fleet.
//
// Usage:
//
//	wavehistd -addr :8080 -snapshots /var/lib/wavehistd
//	wavehistd -addr :8080 -demo            # boot with a queryable demo histogram
//	wavehistd -addr :8080 -workers 4       # in-process loopback worker fleet
//	wavehistd -addr :8080 -dist            # accept remote waveworker registrations
//
// Then:
//
//	curl localhost:8080/v1/hist
//	curl 'localhost:8080/v1/hist/demo/point?key=42'
//	curl 'localhost:8080/v1/hist/demo/range?lo=0&hi=4095'
//	curl -d '{"queries":[{"op":"point","key":7},{"op":"range","lo":0,"hi":99}]}' \
//	     localhost:8080/v1/hist/demo/query
//	curl -d '{"name":"z","kind":"zipf","records":1000000,"domain":65536,"alpha":1.1}' \
//	     localhost:8080/v1/datasets
//	curl -d '{"name":"h","dataset":"z","method":"TwoLevel-S","k":30,"distributed":true}' \
//	     localhost:8080/v1/build
//	curl -d '{"name":"hw","dataset":"z","method":"H-WTopk","k":30,"distributed":true}' \
//	     localhost:8080/v1/build                       # three-round exact build on the fleet
//	curl -X DELETE localhost:8080/v1/jobs/job-1        # cancel a running build
//	curl localhost:8080/dist/v1/workers                # fleet status
//	curl localhost:8080/dist/v1/fleet                  # queue depth + per-worker load
//	curl -d '{"updates":[{"key":42,"delta":5}],"flush":true}' \
//	     localhost:8080/v1/hist/h/updates
//	curl localhost:8080/v1/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/ha"
	"wavelethist/internal/obs"
	"wavelethist/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		snapshots = flag.String("snapshots", "", "snapshot directory (persists published histograms; empty = in-memory)")
		demo      = flag.Bool("demo", false, "register a demo Zipf dataset and publish a 'demo' histogram at startup")
		workers   = flag.Int("workers", 0, "spawn N in-process loopback workers for distributed builds")
		distMode  = flag.Bool("dist", false, "accept remote waveworker registrations on /dist/v1/register")
		replicaOf = flag.String("replica-of", "", "run as a read replica following the primary wavehistd at this base URL")
		shard     = flag.String("shard", "", "shard label reported in /v1/stats (informational)")
		slowQuery = flag.Duration("slow-query", 0, "log queries slower than this threshold (0 disables the slow-query log)")
		slowDir   = flag.String("slow-query-dir", "", "append slow queries as JSONL records (slow-queries.jsonl) into this directory")
		traceDir  = flag.String("trace-dir", "", "dump per-build distributed trace spans as JSONL into this directory")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
	)
	flag.Parse()

	srv, s, rep, err := newDaemonCfg(daemonConfig{
		addr: *addr, snapshots: *snapshots, demo: *demo,
		workers: *workers, distMode: *distMode,
		replicaOf: *replicaOf, shard: *shard,
		slowQuery: *slowQuery, slowQueryDir: *slowDir, traceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "wavehistd:", err)
		os.Exit(1)
	}
	obs.ServeDebug(*debugAddr, log.Printf)
	if rep != nil {
		rep.Start()
		log.Printf("wavehistd: read replica following %s (pull every %s)", *replicaOf, replicaSyncEvery)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("wavehistd: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "wavehistd:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Print("wavehistd: shutting down")
		if rep != nil {
			rep.Stop()
		}
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			srv.Close()
		}
		// Cancel running build jobs and wait for their goroutines so
		// shutdown strands nothing.
		s.Close()
	}
}

// daemonConfig is the resolved flag set.
type daemonConfig struct {
	addr, snapshots string
	demo            bool
	workers         int
	distMode        bool
	replicaOf       string
	shard           string
	slowQuery       time.Duration
	slowQueryDir    string
	traceDir        string
}

// replicaSyncEvery is how often a -replica-of daemon pulls its primary.
const replicaSyncEvery = time.Second

// newDaemon assembles the HTTP server (split from main so tests can run
// it on a loopback listener).
func newDaemon(addr, snapshots string, demo bool) (*http.Server, error) {
	srv, _, err := newDaemonDist(addr, snapshots, demo, 0, false)
	return srv, err
}

// newDaemonDist additionally configures the distributed-build
// coordinator: workers > 0 spawns an in-process loopback fleet; distMode
// accepts remote waveworker registrations. Either enables
// "distributed": true builds and the /dist/v1/* endpoints.
func newDaemonDist(addr, snapshots string, demo bool, workers int, distMode bool) (*http.Server, *serve.Server, error) {
	srv, s, _, err := newDaemonCfg(daemonConfig{
		addr: addr, snapshots: snapshots, demo: demo,
		workers: workers, distMode: distMode,
	})
	return srv, s, err
}

// newDaemonCfg is the full assembly: coordinator (one that dies mid-build
// fails the build, and the client retries it over the workers' partial
// caches), serving layer (optionally read-only), and — in -replica-of
// mode — the follower that keeps the registry synced to a primary. The
// caller starts/stops the returned replica around the HTTP server's
// lifetime.
func newDaemonCfg(c daemonConfig) (*http.Server, *serve.Server, *ha.Replica, error) {
	var coord *dist.Coordinator
	switch {
	case c.workers > 0:
		// Remote workers can still join via the HTTP fallback transport;
		// they expire when they stop heartbeating, the loopback ones never.
		coord, _ = dist.NewLoopbackCluster(c.workers, 0, dist.Config{TraceDir: c.traceDir})
		log.Printf("wavehistd: distributed builds over %d in-process workers", c.workers)
	case c.distMode:
		coord = dist.NewCoordinator(dist.NewHTTPTransport(), dist.Config{TraceDir: c.traceDir})
		log.Print("wavehistd: accepting waveworker registrations on /dist/v1/register")
	}
	s, err := serve.NewServer(serve.Config{
		SnapshotDir:        c.snapshots,
		Coordinator:        coord,
		ReadOnly:           c.replicaOf != "",
		Shard:              c.shard,
		SlowQueryThreshold: c.slowQuery,
		SlowQueryDir:       c.slowQueryDir,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if c.demo {
		if err := bootstrapDemo(s); err != nil {
			return nil, nil, nil, fmt.Errorf("demo bootstrap: %w", err)
		}
	}
	var rep *ha.Replica
	if c.replicaOf != "" {
		rep = ha.NewReplica(s, c.replicaOf, replicaSyncEvery)
	}
	return &http.Server{
		Addr:              c.addr,
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}, s, rep, nil
}

// bootstrapDemo registers a Zipf dataset and publishes a histogram so a
// fresh daemon answers queries immediately.
func bootstrapDemo(s *serve.Server) error {
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 18, Domain: 1 << 12, Alpha: 1.1, Seed: 42,
	})
	if err != nil {
		return err
	}
	if err := s.RegisterDataset("demo", ds); err != nil {
		return err
	}
	res, err := wavelethist.Build(ds, wavelethist.TwoLevelS, wavelethist.Options{K: 30, Seed: 42})
	if err != nil {
		return err
	}
	_, err = s.Registry().Publish("demo", res.Histogram)
	return err
}

// serveOn is a test hook: serve on an existing listener.
func serveOn(srv *http.Server, ln net.Listener) error { return srv.Serve(ln) }
