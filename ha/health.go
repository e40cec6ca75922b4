package ha

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Router-driven health checking and automatic failover. Every probe
// interval the checker GETs each shard target's /healthz — one probe
// answers liveness, role (read_only), registry epoch, and replication
// progress (applied version + the epoch it was synced under). Verdicts
// are EWMA-smoothed for reporting, but state transitions are discrete:
// a target is marked down after probeFailThreshold consecutive
// failures (one flaky probe must not trigger failover) and up again on
// the first success.
//
// After each sweep the checker reconciles every shard:
//
//   - A down primary (and no writable stand-in) elects the most
//     caught-up replica — ordered by (repl epoch, applied version), so
//     a replica already re-based on a newer lineage beats a longer but
//     stale cursor — and promotes it via POST /v1/promote with an
//     epoch fencing token (max epoch observed anywhere in the shard,
//     plus one). Success atomically swaps the router's topology
//     snapshot: the shard map is config only until the first failover.
//   - A writable target that is NOT the shard's best lineage (a
//     resurrected old primary whose epoch the fence has moved past, or
//     the loser of a tie) is demoted via POST /v1/demote with a token
//     above every epoch in sight. The demote endpoint refuses stale
//     tokens, so a lagging router cannot fence the legitimate primary.
//   - A replica-positioned target that IS writable with the shard's
//     highest epoch (this router restarted and lost the swap, or an
//     operator promoted by hand) is adopted as primary without any
//     RPC — the router re-learns the cluster instead of fighting it.
type healthChecker struct {
	rt       *Router
	interval time.Duration
	timeout  time.Duration

	mu      sync.Mutex
	targets map[string]*targetHealth
	fences  map[string]uint64 // shard ID -> epoch of the lineage this router follows

	promotions atomic.Uint64
	demotions  atomic.Uint64

	stopCh chan struct{}
	doneCh chan struct{}
}

// targetHealth is one target's probe state, exported as-is in
// GET /v1/router's "health" map.
type targetHealth struct {
	URL         string  `json:"url"`
	Up          bool    `json:"up"`
	ConsecFails int     `json:"consec_fails"`
	EWMA        float64 `json:"ewma"` // smoothed availability in [0,1]
	Probes      uint64  `json:"probes"`
	Epoch       uint64  `json:"epoch"`
	ReplEpoch   uint64  `json:"repl_epoch"`
	Applied     uint64  `json:"applied"`
	Version     uint64  `json:"version"`
	ReadOnly    bool    `json:"read_only"`
	LastErr     string  `json:"last_error,omitempty"`
}

// ewmaAlpha weights the newest probe at 30% — a few probes to saturate
// either way, responsive without flapping on one blip.
const ewmaAlpha = 0.3

// probeFailThreshold is the consecutive probe failures that mark a
// target down.
const probeFailThreshold = 3

func newHealthChecker(rt *Router, interval time.Duration) *healthChecker {
	return &healthChecker{
		rt:       rt,
		interval: interval,
		timeout:  min(interval, time.Second),
		targets:  map[string]*targetHealth{},
		fences:   map[string]uint64{},
	}
}

func (h *healthChecker) start() {
	h.stopCh = make(chan struct{})
	h.doneCh = make(chan struct{})
	go func() {
		defer close(h.doneCh)
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			select {
			case <-h.stopCh:
				return
			case <-t.C:
				h.sweep()
			}
		}
	}()
}

func (h *healthChecker) stop() {
	if h.stopCh == nil {
		return
	}
	close(h.stopCh)
	<-h.doneCh
	h.stopCh = nil
}

// healthzBody is the subset of GET /healthz the checker elects on.
type healthzBody struct {
	OK        bool   `json:"ok"`
	Version   uint64 `json:"version"`
	Epoch     uint64 `json:"epoch"`
	ReadOnly  bool   `json:"read_only"`
	Applied   uint64 `json:"applied"`
	ReplEpoch uint64 `json:"repl_epoch"`
}

// sweep probes every target in the current topology concurrently, then
// reconciles each shard's roles against what the probes learned.
func (h *healthChecker) sweep() {
	topo := h.rt.topo.Load()
	type result struct {
		url  string
		body healthzBody
		err  error
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
	)
	for _, sh := range topo.shards {
		for _, url := range shardTargets(sh) {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				body, err := h.probe(url)
				mu.Lock()
				results = append(results, result{url: url, body: body, err: err})
				mu.Unlock()
			}(url)
		}
	}
	wg.Wait()

	h.mu.Lock()
	for _, res := range results {
		th := h.targets[res.url]
		if th == nil {
			th = &targetHealth{URL: res.url, Up: true, EWMA: 1}
			h.targets[res.url] = th
		}
		th.Probes++
		if res.err != nil {
			th.ConsecFails++
			th.EWMA *= 1 - ewmaAlpha
			th.LastErr = res.err.Error()
			if th.ConsecFails >= probeFailThreshold {
				th.Up = false
			}
			continue
		}
		th.ConsecFails = 0
		th.Up = true
		th.EWMA = ewmaAlpha + (1-ewmaAlpha)*th.EWMA
		th.LastErr = ""
		th.Epoch = res.body.Epoch
		th.ReadOnly = res.body.ReadOnly
		th.Applied = res.body.Applied
		th.ReplEpoch = res.body.ReplEpoch
		th.Version = res.body.Version
	}
	h.mu.Unlock()

	for _, sh := range topo.shards {
		h.reconcile(sh)
	}
}

func (h *healthChecker) probe(url string) (healthzBody, error) {
	var body healthzBody
	ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return body, err
	}
	res, err := h.rt.client.Do(req)
	if err != nil {
		return body, err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return body, fmt.Errorf("healthz: HTTP %d", res.StatusCode)
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		return body, fmt.Errorf("healthz: %w", err)
	}
	if !body.OK {
		return body, fmt.Errorf("healthz: ok=false")
	}
	return body, nil
}

func shardTargets(sh *Shard) []string {
	out := make([]string, 0, 1+len(sh.Replicas))
	out = append(out, sh.Primary)
	out = append(out, sh.Replicas...)
	return out
}

// reconcile applies the failover rules to one shard. It runs only from
// the single sweep goroutine; h.mu guards the probe-state reads because
// /v1/router and readShard read them concurrently.
func (h *healthChecker) reconcile(sh *Shard) {
	h.mu.Lock()
	fence := h.fences[sh.ID]
	maxEpoch := fence
	var (
		writables []*targetHealth
		primary   = h.targets[sh.Primary]
	)
	for _, url := range shardTargets(sh) {
		th := h.targets[url]
		if th == nil || !th.Up || th.Probes == 0 {
			continue
		}
		if th.Epoch > maxEpoch {
			maxEpoch = th.Epoch
		}
		if th.ReplEpoch > maxEpoch {
			maxEpoch = th.ReplEpoch
		}
		if !th.ReadOnly {
			writables = append(writables, th)
		}
	}

	// The best writable lineage: highest epoch, version as tie-break
	// (a resurrected primary's restarted counter loses to the promoted
	// replica's advanced one).
	var best *targetHealth
	for _, th := range writables {
		if best == nil || th.Epoch > best.Epoch ||
			(th.Epoch == best.Epoch && th.Version > best.Version) {
			best = th
		}
	}

	var (
		adoptURL   string
		promoteURL string
		token      uint64
		demotes    []string
	)
	switch {
	case best != nil && best.Epoch >= fence:
		// A legitimate primary is up and writable. Follow it (adopting
		// it if the topology still points elsewhere) and fence every
		// other writable out of the shard.
		fence = best.Epoch
		h.fences[sh.ID] = fence
		if best.URL != sh.Primary {
			adoptURL = best.URL
		}
		for _, th := range writables {
			if th != best {
				demotes = append(demotes, th.URL)
			}
		}
		token = maxEpoch + 1
	case primary != nil && !primary.Up && primary.ConsecFails >= probeFailThreshold:
		// Primary down, no acceptable writable: elect the most
		// caught-up replica, fencing with a token above every epoch
		// this shard has ever shown us.
		var cand *targetHealth
		for _, url := range sh.Replicas {
			th := h.targets[url]
			if th == nil || !th.Up || th.Probes == 0 || !th.ReadOnly {
				continue
			}
			if cand == nil || th.ReplEpoch > cand.ReplEpoch ||
				(th.ReplEpoch == cand.ReplEpoch && th.Applied > cand.Applied) {
				cand = th
			}
		}
		token = maxEpoch + 1
		if cand != nil {
			promoteURL = cand.URL
		}
		// A stale writable (old primary back from the dead while the
		// fence points past it) is demoted even without a promotion.
		for _, th := range writables {
			demotes = append(demotes, th.URL)
		}
	default:
		// Primary not (yet) conclusively down. Writables below the
		// fence are still superseded lineages — fence them out.
		token = maxEpoch + 1
		for _, th := range writables {
			if th.Epoch < fence {
				demotes = append(demotes, th.URL)
			}
		}
	}
	h.mu.Unlock()

	if adoptURL != "" {
		h.rt.swapPrimary(sh.ID, adoptURL)
	}
	if promoteURL != "" {
		if err := h.fencePost(promoteURL, "/v1/promote", token); err == nil {
			h.promotions.Add(1)
			h.rt.swapPrimary(sh.ID, promoteURL)
			h.mu.Lock()
			h.fences[sh.ID] = token
			if th := h.targets[promoteURL]; th != nil {
				th.ReadOnly = false
				th.Epoch = token
			}
			h.mu.Unlock()
		}
	}
	for _, url := range demotes {
		if err := h.fencePost(url, "/v1/demote", token); err == nil {
			h.demotions.Add(1)
			h.mu.Lock()
			if th := h.targets[url]; th != nil {
				th.ReadOnly = true
			}
			h.mu.Unlock()
		}
	}
}

// fencePost sends a promote/demote with an epoch fencing token.
func (h *healthChecker) fencePost(target, path string, token uint64) error {
	payload, _ := json.Marshal(map[string]uint64{"epoch": token})
	timeout := 4 * h.timeout
	if timeout < 2*time.Second {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	res, err := h.rt.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, res.StatusCode)
	}
	return nil
}

// orderUp stably partitions targets so the ones the checker believes up
// come first. Down targets are tried last, never skipped: if the whole
// shard looks down, a stale verdict must not turn a servable request
// into a refusal.
func (h *healthChecker) orderUp(targets []string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	up := make([]string, 0, len(targets))
	var down []string
	for _, t := range targets {
		if th := h.targets[t]; th != nil && !th.Up {
			down = append(down, t)
			continue
		}
		up = append(up, t)
	}
	return append(up, down...)
}

// isUp reports the checker's current verdict (unknown targets are up).
func (h *healthChecker) isUp(target string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	th := h.targets[target]
	return th == nil || th.Up
}

// view returns a copy of the probe states (sorted by URL) and fence
// epochs for GET /v1/router.
func (h *healthChecker) view() ([]targetHealth, map[string]uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]targetHealth, 0, len(h.targets))
	for _, th := range h.targets {
		out = append(out, *th)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	fences := make(map[string]uint64, len(h.fences))
	for id, f := range h.fences {
		fences[id] = f
	}
	return out, fences
}
