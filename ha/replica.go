package ha

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wavelethist/dist"
	"wavelethist/serve"
)

// Replica keeps a read-only serve.Server following a primary: a pull
// loop asks the primary for every registry entry newer than the version
// the replica has applied (the catch-up protocol in dist's replication
// frames) and installs the histograms locally. Because registry versions
// are strictly monotonic and entries arrive in version order, one uint64
// cursor is the whole replication state — a replica that restarts from
// zero simply pulls a full snapshot.
type Replica struct {
	srv      *serve.Server
	primary  string // base URL, no trailing slash
	client   *http.Client
	interval time.Duration

	version atomic.Uint64 // last fully-applied primary version
	epoch   atomic.Uint64 // primary epoch the cursor was minted under (0 = none)

	// primaryVersion is the highest primary registry version this
	// replica has ever observed — it lets the failure path report a
	// truthful lag instead of freezing the gauge at its last value.
	primaryVersion atomic.Uint64
	epochResets    atomic.Uint64
	firstAttempt   atomic.Pointer[time.Time]

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	stopped bool
}

// NewReplica wraps a (normally read-only) server as a follower of the
// primary at primaryURL, pulling every interval (<= 0 = 1s).
func NewReplica(srv *serve.Server, primaryURL string, interval time.Duration) *Replica {
	if interval <= 0 {
		interval = time.Second
	}
	return &Replica{
		srv:      srv,
		primary:  trimSlash(primaryURL),
		client:   &http.Client{Timeout: 30 * time.Second, Transport: newUpstreamTransport()},
		interval: interval,
	}
}

// Version returns the primary registry version this replica has applied.
func (r *Replica) Version() uint64 { return r.version.Load() }

// SyncOnce performs one pull-and-apply cycle against the primary and
// updates the server's replication status either way — the failure path
// refreshes the lag/staleness gauges too, so the replication alerts
// cannot go quiet exactly when replication is broken. A cycle with no
// new entries costs one small round trip.
//
// Epoch fencing: the pull carries the primary epoch this replica last
// synced under. If the primary's epoch differs (it restarted, or a
// different node was promoted), the cursor is meaningless — the primary
// answers with a full snapshot (response Since 0) and the replica
// re-bases on it rather than serving stale data forever. Against an
// old primary that ignores epochs, the replica detects the change
// itself and re-pulls from zero.
func (r *Replica) SyncOnce(ctx context.Context) error {
	if r.firstAttempt.Load() == nil {
		now := time.Now()
		r.firstAttempt.CompareAndSwap(nil, &now)
	}
	since, lastEpoch := r.version.Load(), r.epoch.Load()
	resp, err := r.pull(ctx, since, lastEpoch)
	if err != nil {
		r.failStatus(err)
		return err
	}
	if resp.Version > r.primaryVersion.Load() {
		r.primaryVersion.Store(resp.Version)
	}
	if lastEpoch != 0 && resp.Epoch != 0 && resp.Epoch != lastEpoch && resp.Since != 0 {
		// The primary's epoch changed but it still answered from our
		// stale cursor (a pre-epoch primary echoes nothing; a current
		// one would have sent Since 0). Re-pull the full snapshot.
		if resp, err = r.pull(ctx, 0, 0); err != nil {
			r.failStatus(err)
			return err
		}
	}
	if lastEpoch != 0 && resp.Epoch != 0 && resp.Epoch != lastEpoch {
		r.epochResets.Add(1)
	}
	since = resp.Since // the cursor the primary actually answered from
	if err := r.srv.ReplApply(func() error { return r.apply(resp) }); err != nil {
		r.failStatus(err)
		return err
	}
	r.version.Store(resp.Version)
	r.epoch.Store(resp.Epoch)
	var lag uint64
	if resp.Version > since {
		lag = resp.Version - since
	}
	now := time.Now()
	r.srv.SetReplStatus(serve.ReplStatus{
		Primary:      r.primary,
		Version:      resp.Version,
		Epoch:        resp.Epoch,
		EpochResets:  r.epochResets.Load(),
		SyncedAt:     now,
		LastAttempt:  now,
		FirstAttempt: *r.firstAttempt.Load(),
		LagVersions:  lag,
	})
	return nil
}

// failStatus records a failed sync cycle without losing gauge accuracy:
// lag is recomputed from the highest primary version ever observed, and
// the attempt timestamps keep the staleness gauge moving for replicas
// that have never synced.
func (r *Replica) failStatus(err error) {
	st := r.srv.ReplStatus()
	st.Primary = r.primary
	st.Error = err.Error()
	st.LastAttempt = time.Now()
	if fa := r.firstAttempt.Load(); fa != nil {
		st.FirstAttempt = *fa
	}
	if hv := r.primaryVersion.Load(); hv > r.version.Load() {
		st.LagVersions = hv - r.version.Load()
	}
	st.Epoch = r.epoch.Load()
	st.EpochResets = r.epochResets.Load()
	r.srv.SetReplStatus(st)
}

// pull posts one binary ReplPullRequest to the primary.
func (r *Replica) pull(ctx context.Context, since, epoch uint64) (*dist.ReplPullResponse, error) {
	frame := dist.EncodeReplPullRequest(&dist.ReplPullRequest{Since: since, Epoch: epoch})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.primary+"/v1/repl/pull", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", dist.ContentTypeBinary)
	hres, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer hres.Body.Close()
	body, err := io.ReadAll(hres.Body)
	if err != nil {
		return nil, err
	}
	if hres.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ha: pull from %s: HTTP %d: %s", r.primary, hres.StatusCode, truncate(body))
	}
	return dist.DecodeReplPullResponse(body)
}

// apply installs a pull response into the local registry: publish every
// new entry in version order, then drop local names the primary no
// longer has.
func (r *Replica) apply(resp *dist.ReplPullResponse) error {
	reg := r.srv.Registry()
	for _, e := range resp.Entries {
		if _, err := reg.Install(e.Name, e.Blob); err != nil {
			return fmt.Errorf("ha: replicate %q: %w", e.Name, err)
		}
	}
	live := make(map[string]bool, len(resp.Names))
	for _, n := range resp.Names {
		live[n] = true
	}
	for _, n := range reg.Snapshot().Names() {
		if !live[n] {
			reg.Drop(n)
		}
	}
	return nil
}

// Start launches the background follow loop. Stop (or Promote) ends it.
func (r *Replica) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop != nil || r.stopped {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), r.interval*4+time.Second)
				err := r.SyncOnce(ctx) // errors land in ReplStatus; keep following
				cancel()
				if errors.Is(err, serve.ErrNotReplica) {
					// The server was promoted out from under this loop
					// (router-driven POST /v1/promote). It is a primary
					// now: following the old one would mix lineages.
					return
				}
			}
		}
	}(r.stop, r.done)
}

// Stop ends the follow loop and waits for it to drain.
func (r *Replica) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.stopped = true
	r.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	r.client.CloseIdleConnections()
}

// Promote stops following the (presumably dead) primary and flips the
// local server writable — the failover path. The replica serves whatever
// it had replicated as the new authoritative state; with monotonic pulls
// that is always a prefix-consistent view of the old primary's registry.
func (r *Replica) Promote() {
	r.Stop()
	r.srv.Promote()
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}
