package dist_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/internal/core"
)

// zipfDS builds the shared test dataset: 64Ki records over u = 4096 with
// 8 KiB chunks, i.e. 32 splits — enough assignment batches that every
// worker in a 3-worker fleet sees several RPCs.
func zipfDS(t testing.TB) *wavelethist.Dataset {
	t.Helper()
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 1 << 16, Domain: 1 << 12, Alpha: 1.1, Seed: 7, ChunkSize: 8 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// sameHistogram asserts two results carry bit-identical coefficients.
func sameHistogram(t *testing.T, want, got *wavelethist.Result) {
	t.Helper()
	wc, gc := want.Histogram.Coefficients(), got.Histogram.Coefficients()
	if len(wc) != len(gc) {
		t.Fatalf("coefficient count: got %d, want %d", len(gc), len(wc))
	}
	for i := range wc {
		if wc[i] != gc[i] {
			t.Fatalf("coefficient %d: got %+v, want %+v", i, gc[i], wc[i])
		}
	}
}

// TestLoopbackParityAllMethods runs every distributable method on a
// 3-worker loopback fleet and checks the merged histogram is identical
// to the single-process simulated build with the same seed.
func TestLoopbackParityAllMethods(t *testing.T) {
	ds := zipfDS(t)
	methods := []wavelethist.Method{
		wavelethist.SendV, wavelethist.SendCoef, wavelethist.BasicS,
		wavelethist.ImprovedS, wavelethist.TwoLevelS, wavelethist.SendSketch,
	}
	for _, m := range methods {
		t.Run(string(m), func(t *testing.T) {
			opts := wavelethist.Options{K: 25, Seed: 7}
			want, err := wavelethist.Build(ds, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			coord, _ := dist.NewLoopbackCluster(3, 2, dist.Config{})
			got, err := wavelethist.BuildDistributed(context.Background(), ds, m, opts, coord)
			if err != nil {
				t.Fatal(err)
			}
			sameHistogram(t, want, got)
			if !got.Distributed {
				t.Error("result not marked distributed")
			}
			if got.WireBytes <= 0 || got.CommBytes != got.WireBytes {
				t.Errorf("wire bytes not measured: wire=%d comm=%d", got.WireBytes, got.CommBytes)
			}
			// The modeled metric must match the simulated build exactly —
			// that's what makes the two modes comparable.
			if got.ModelCommBytes != want.ModelCommBytes {
				t.Errorf("modeled comm: got %d, want %d", got.ModelCommBytes, want.ModelCommBytes)
			}
			if got.RecordsRead != want.RecordsRead {
				t.Errorf("records read: got %d, want %d", got.RecordsRead, want.RecordsRead)
			}
		})
	}
}

// TestWorkerCrashMidBuild kills one of three workers partway through a
// build; the build must re-assign that worker's splits and still produce
// the single-process result.
func TestWorkerCrashMidBuild(t *testing.T) {
	ds := zipfDS(t)
	for _, m := range []wavelethist.Method{wavelethist.SendV, wavelethist.TwoLevelS} {
		t.Run(string(m), func(t *testing.T) {
			opts := wavelethist.Options{K: 25, Seed: 7}
			want, err := wavelethist.Build(ds, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			coord, lb := dist.NewLoopbackCluster(3, 1, dist.Config{})
			// First build: every worker serves at least one batch (the
			// initial dispatch hands each idle worker a batch).
			if _, err := wavelethist.BuildDistributed(context.Background(), ds, m, opts, coord); err != nil {
				t.Fatal(err)
			}
			// Kill local-0. The next build still assigns it work first
			// (all workers idle, smallest id wins ties), so its batch
			// fails mid-build, must be re-assigned to the survivors, and
			// the coordinator must mark it dead.
			lb.Kill(dist.LoopbackScheme + "local-0")
			got, err := wavelethist.BuildDistributed(context.Background(), ds, m, opts, coord)
			if err != nil {
				t.Fatal(err)
			}
			sameHistogram(t, want, got)
			if coord.AliveWorkers() != 2 {
				t.Errorf("alive workers after crash: got %d, want 2", coord.AliveWorkers())
			}
		})
	}
}

// TestAllWorkersDead: a fleet whose every worker is dead fails the build
// with a clear error instead of hanging.
func TestAllWorkersDead(t *testing.T) {
	ds := zipfDS(t)
	coord, lb := dist.NewLoopbackCluster(2, 1, dist.Config{})
	lb.Kill(dist.LoopbackScheme + "local-0")
	lb.Kill(dist.LoopbackScheme + "local-1")
	_, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.SendV, wavelethist.Options{K: 10, Seed: 1}, coord)
	if err == nil {
		t.Fatal("expected error with all workers dead")
	}
}

// TestNoWorkers: building against an empty fleet fails immediately.
func TestNoWorkers(t *testing.T) {
	ds := zipfDS(t)
	coord := dist.NewCoordinator(dist.NewLoopback(), dist.Config{})
	_, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.SendV, wavelethist.Options{K: 10}, coord)
	if err == nil {
		t.Fatal("expected error with no workers")
	}
}

// TestHWTopkParity: the three-round H-WTopk on a loopback fleet (the
// multi-round engine: per-job state leases, T1/m and R broadcasts,
// coordinator round barrier) is bit-identical to the single-process
// three-round run, and reports per-round wire metrics.
func TestHWTopkParity(t *testing.T) {
	ds := zipfDS(t)
	opts := wavelethist.Options{K: 25, Seed: 7}
	want, err := wavelethist.Build(ds, wavelethist.HWTopk, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Manual fleet so worker internals (leases) are observable.
	lb := dist.NewLoopback()
	coord := dist.NewCoordinator(lb, dist.Config{})
	workers := make([]*dist.Worker, 3)
	for i := range workers {
		workers[i] = dist.NewWorker(fmt.Sprintf("local-%d", i), 2)
		coord.Register(workers[i].ID(), lb.Add(workers[i]), 2)
	}

	got, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.HWTopk, opts, coord)
	if err != nil {
		t.Fatal(err)
	}
	sameHistogram(t, want, got)
	if !got.Distributed || got.Rounds != 3 {
		t.Errorf("distributed=%v rounds=%d, want true/3", got.Distributed, got.Rounds)
	}
	if got.WireBytes <= 0 || got.CommBytes != got.WireBytes {
		t.Errorf("wire bytes not measured: wire=%d comm=%d", got.WireBytes, got.CommBytes)
	}
	// Modeled metrics must match the simulated build exactly.
	if got.ModelCommBytes != want.ModelCommBytes {
		t.Errorf("modeled comm: got %d, want %d", got.ModelCommBytes, want.ModelCommBytes)
	}
	if got.RecordsRead != want.RecordsRead {
		t.Errorf("records read: got %d, want %d", got.RecordsRead, want.RecordsRead)
	}
	if got.CandidateSetSize <= 0 || got.CandidateSetSize != want.CandidateSetSize {
		t.Errorf("candidate set: got %d, want %d (>0)", got.CandidateSetSize, want.CandidateSetSize)
	}
	// Per-round profile: three rounds, each with measured traffic, model
	// bytes summing to the total, and a broadcast-carrying round 2/3.
	if len(got.PerRound) != 3 || len(want.PerRound) != 3 {
		t.Fatalf("per-round stats: got %d, want %d, expected 3", len(got.PerRound), len(want.PerRound))
	}
	var modelSum int64
	for i, r := range got.PerRound {
		if r.Round != i+1 || r.WireBytes <= 0 || r.RPCs <= 0 {
			t.Errorf("round %d stats malformed: %+v", i+1, r)
		}
		if r.ModelCommBytes != want.PerRound[i].ModelCommBytes {
			t.Errorf("round %d model comm: got %d, want %d", i+1, r.ModelCommBytes, want.PerRound[i].ModelCommBytes)
		}
		modelSum += r.ModelCommBytes
	}
	if modelSum != got.ModelCommBytes {
		t.Errorf("per-round model sum %d != total %d", modelSum, got.ModelCommBytes)
	}
	// The coordinator must have released every state lease at build end.
	for _, w := range workers {
		if n := len(w.Leases()); n != 0 {
			t.Errorf("worker %s still holds %d leases after build", w.ID(), n)
		}
	}
}

// TestHWTopk2DParity: the packed-domain H-WTopk-2D runs the same engine
// over a 2D dataset's key recipe and matches the simulated 2D build
// bit-for-bit.
func TestHWTopk2DParity(t *testing.T) {
	const side = 64
	n := 4096
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := range xs {
		// Deterministic correlated grid: hotspots on the diagonal.
		xs[i] = int64(i*31%side) * int64(i%3) % side
		ys[i] = (xs[i] + int64(i*17%7)) % side
	}
	ds, err := wavelethist.NewDataset2DFromPairs(xs, ys, side, 4<<10, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := wavelethist.Options{K: 20, Seed: 11}
	want, err := wavelethist.Build2D(ds, wavelethist.HWTopk2D, opts)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := dist.NewLoopbackCluster(2, 2, dist.Config{})
	got, err := wavelethist.BuildDistributed2D(context.Background(), ds, wavelethist.HWTopk2D, opts, coord)
	if err != nil {
		t.Fatal(err)
	}
	wc, gc := want.Histogram.Coefficients(), got.Histogram.Coefficients()
	if len(wc) != len(gc) {
		t.Fatalf("coefficient count: got %d, want %d", len(gc), len(wc))
	}
	for i := range wc {
		if wc[i] != gc[i] {
			t.Fatalf("coefficient %d: got %+v, want %+v", i, gc[i], wc[i])
		}
	}
	if got.Rounds != 3 || got.WireBytes <= 0 || !got.Distributed {
		t.Errorf("rounds=%d wire=%d distributed=%v", got.Rounds, got.WireBytes, got.Distributed)
	}
	if got.CandidateSetSize != want.CandidateSetSize {
		t.Errorf("candidate set: got %d, want %d", got.CandidateSetSize, want.CandidateSetSize)
	}
	// The one-round 2D baselines distribute through the single fan-out
	// path, bit-identical to their simulated runs.
	for _, m2d := range []wavelethist.Method2D{wavelethist.SendV2D, wavelethist.TwoLevelS2D} {
		want2, err := wavelethist.Build2D(ds, m2d, opts)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := wavelethist.BuildDistributed2D(context.Background(), ds, m2d, opts, coord)
		if err != nil {
			t.Fatal(err)
		}
		wc2, gc2 := want2.Histogram.Coefficients(), got2.Histogram.Coefficients()
		if len(wc2) != len(gc2) {
			t.Fatalf("%s coefficient count: got %d, want %d", m2d, len(gc2), len(wc2))
		}
		for i := range wc2 {
			if wc2[i] != gc2[i] {
				t.Fatalf("%s coefficient %d: got %+v, want %+v", m2d, i, gc2[i], wc2[i])
			}
		}
		if got2.Rounds != 1 || !got2.Distributed || got2.WireBytes <= 0 {
			t.Errorf("%s: rounds=%d wire=%d distributed=%v", m2d, got2.Rounds, got2.WireBytes, got2.Distributed)
		}
	}
	// An unknown 2D method still gets the typed error.
	if _, err := wavelethist.BuildDistributed2D(context.Background(), ds, wavelethist.Method2D("no-such-2d"), opts, coord); !errors.Is(err, wavelethist.ErrUnsupportedMethod) {
		t.Errorf("unknown 2D method: want ErrUnsupportedMethod, got %v", err)
	}
}

// TestUnsupportedMethodTyped: unknown/unsupported methods return the
// typed ErrUnsupportedMethod listing supported methods.
func TestUnsupportedMethodTyped(t *testing.T) {
	ds := zipfDS(t)
	coord, _ := dist.NewLoopbackCluster(1, 1, dist.Config{})
	_, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.Method("H-WTopk-2D"), wavelethist.Options{K: 10}, coord)
	if err == nil || !errors.Is(err, wavelethist.ErrUnsupportedMethod) {
		t.Fatalf("2D-only method via 1D Build: want ErrUnsupportedMethod, got %v", err)
	}
	_, err = wavelethist.BuildDistributed(context.Background(), ds, wavelethist.Method("no-such"), wavelethist.Options{K: 10}, coord)
	if err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestHWTopkWorkerCrashMidRound kills a worker on its first round-2 (then
// round-3) assignment: the coordinator must re-assign the dead worker's
// splits, the new owners must replay the earlier rounds to rebuild the
// lost state leases, and the result must stay bit-identical.
func TestHWTopkWorkerCrashMidRound(t *testing.T) {
	ds := zipfDS(t)
	opts := wavelethist.Options{K: 25, Seed: 7}
	want, err := wavelethist.Build(ds, wavelethist.HWTopk, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, crashRound := range []int{2, 3} {
		t.Run(fmt.Sprintf("round-%d", crashRound), func(t *testing.T) {
			coord, lb := dist.NewLoopbackCluster(3, 1, dist.Config{})
			lb.CrashWhen(dist.LoopbackScheme+"local-0", func(req *dist.MapRequest) bool {
				return req.Round == crashRound
			})
			got, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.HWTopk, opts, coord)
			if err != nil {
				t.Fatal(err)
			}
			sameHistogram(t, want, got)
			if coord.AliveWorkers() != 2 {
				t.Errorf("alive workers after crash: got %d, want 2", coord.AliveWorkers())
			}
			if len(got.PerRound) != 3 {
				t.Fatalf("per-round stats: %d", len(got.PerRound))
			}
			rs := got.PerRound[crashRound-1]
			if rs.Retries == 0 {
				t.Errorf("round %d: no retries recorded after crash: %+v", crashRound, rs)
			}
			replayed := 0
			for _, r := range got.PerRound {
				replayed += r.ReplayedSplits
			}
			if replayed == 0 {
				t.Errorf("no splits replayed after mid-round-%d crash", crashRound)
			}
		})
	}
}

// TestLeaseExpiry: a worker whose coordinator went silent expires its
// state lease after the TTL (the worker-side analogue of a heartbeat
// timeout); a later round for those splits must replay rather than read
// stale state, and Release drops leases explicitly.
func TestLeaseExpiry(t *testing.T) {
	ds := zipfDS(t)
	p := core.Params{U: ds.Domain(), K: 25, Seed: 7}
	file, _, err := ds.Spec().Materialize()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewRoundPlan(file, "H-WTopk", p)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.NumSplits()
	all := make([]int, m)
	for i := range all {
		all[i] = i
	}

	w := dist.NewWorker("w0", 2)
	dist.SetWorkerLeaseTTL(w, 300*time.Millisecond)
	ctx := context.Background()
	round := func(r int, bcast []byte) *dist.MapResponse {
		t.Helper()
		resp, err := w.HandleMap(ctx, &dist.MapRequest{
			JobID: "job-lease", Method: "H-WTopk", Params: p, Dataset: *ds.Spec(),
			Splits: all, Round: r, Rounds: 3, Broadcast: bcast,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Error != "" {
			t.Fatal(resp.Error)
		}
		return resp
	}

	r1 := round(1, plan.Broadcast(1))
	parts, err := core.DecodePartials(r1.Partials)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ReduceRound(ctx, 1, parts); err != nil {
		t.Fatal(err)
	}
	if got := len(w.Leases()); got != 1 {
		t.Fatalf("leases after round 1: %d, want 1", got)
	}

	// Let the lease expire, then run round 2: every split must replay.
	time.Sleep(time.Second)
	r2 := round(2, plan.Broadcast(2))
	if len(r2.Replayed) != m {
		t.Errorf("replayed after lease expiry: %d, want all %d", len(r2.Replayed), m)
	}
	// Expiry is proven; widen the TTL so the rest of the test (including
	// a full simulated comparison build) can't idle the lease out again
	// on a slow or contended machine.
	dist.SetWorkerLeaseTTL(w, time.Hour)
	parts2, err := core.DecodePartials(r2.Partials)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ReduceRound(ctx, 2, parts2); err != nil {
		t.Fatal(err)
	}

	// Round 3 right away: state is warm, nothing replays; the result
	// matches the single-process run despite the mid-protocol expiry.
	r3 := round(3, plan.Broadcast(3))
	if len(r3.Replayed) != 0 {
		t.Errorf("unexpected replays with warm lease: %v", r3.Replayed)
	}
	parts3, err := core.DecodePartials(r3.Partials)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ReduceRound(ctx, 3, parts3); err != nil {
		t.Fatal(err)
	}
	out, err := plan.Output()
	if err != nil {
		t.Fatal(err)
	}
	want, err := wavelethist.Build(ds, wavelethist.HWTopk, wavelethist.Options{K: 25, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wc := want.Histogram.Coefficients()
	if len(out.Rep.Coefs) != len(wc) {
		t.Fatalf("coefficient count: got %d, want %d", len(out.Rep.Coefs), len(wc))
	}
	for i := range wc {
		if out.Rep.Coefs[i].Index != wc[i].Index || out.Rep.Coefs[i].Value != wc[i].Value {
			t.Fatalf("coefficient %d: got %+v, want %+v", i, out.Rep.Coefs[i], wc[i])
		}
	}

	// Explicit release drops the lease; releasing again is a no-op.
	if !w.Release("job-lease") {
		t.Error("release of live lease reported no lease")
	}
	if w.Release("job-lease") {
		t.Error("double release reported a lease")
	}
	if got := len(w.Leases()); got != 0 {
		t.Errorf("leases after release: %d, want 0", got)
	}
}

// TestFleetStats: the saturation snapshot reports per-worker latency
// after builds and an empty build queue at rest.
func TestFleetStats(t *testing.T) {
	ds := zipfDS(t)
	coord, _ := dist.NewLoopbackCluster(2, 2, dist.Config{})
	if _, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.HWTopk, wavelethist.Options{K: 10, Seed: 1}, coord); err != nil {
		t.Fatal(err)
	}
	fs := coord.FleetStats()
	if fs.ActiveBuilds != 0 || fs.PendingSplits != 0 || fs.InFlightRPCs != 0 {
		t.Errorf("fleet not idle after build: %+v", fs)
	}
	if len(fs.Workers) != 2 {
		t.Fatalf("workers: %d", len(fs.Workers))
	}
	for _, w := range fs.Workers {
		if w.RPCEWMAMillis <= 0 {
			t.Errorf("worker %s has no RPC-latency EWMA", w.ID)
		}
	}
	if fs.AliveWorkers != 2 {
		t.Errorf("alive workers: %d, want 2", fs.AliveWorkers)
	}
}

// TestBuildCancel: canceling the context aborts a distributed build with
// ctx.Err(), and the long-lived coordinator comes out unharmed — no
// leaked in-flight slots, no workers blamed for the cancellation.
func TestBuildCancel(t *testing.T) {
	ds := zipfDS(t)
	coord, _ := dist.NewLoopbackCluster(2, 1, dist.Config{})
	opts := wavelethist.Options{K: 10, Seed: 1}

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if i == 0 {
			cancel() // before any dispatch
		} else {
			go func() {
				time.Sleep(time.Duration(i) * 3 * time.Millisecond)
				cancel() // mid-build, with RPCs in flight
			}()
		}
		_, err := wavelethist.BuildDistributed(ctx, ds, wavelethist.SendV, opts, coord)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel %d: got %v, want context.Canceled (or completion)", i, err)
		}
	}
	if got := coord.AliveWorkers(); got != 2 {
		t.Fatalf("alive after cancellations: got %d, want 2 (cancel must not count as worker failure)", got)
	}
	// The same coordinator must still have its full capacity: a fresh
	// build succeeds and matches the single-process result.
	want, err := wavelethist.Build(ds, wavelethist.SendV, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.SendV, opts, coord)
	if err != nil {
		t.Fatalf("build after cancellations: %v (leaked in-flight slots?)", err)
	}
	sameHistogram(t, want, got)
	// Canceled RPCs are drained asynchronously; their slots must come
	// back promptly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		stuck := 0
		for _, w := range coord.Workers() {
			stuck += w.InFlight
		}
		if stuck == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d in-flight slots never released after builds", stuck)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every RPC is settled now, drained ones included. The alive count
	// above only sees blame that reached the death threshold; the counter
	// sees any.
	if got := dist.WorkerFailuresTotal(coord); got != 0 {
		t.Fatalf("worker failures after cancellations: got %d, want 0 (cancel must not count as worker failure)", got)
	}
}

// TestHeartbeatRevivesDeadWorker: a worker marked dead after failures
// comes back via heartbeat and serves builds again.
func TestHeartbeatRevivesDeadWorker(t *testing.T) {
	lb := dist.NewLoopback()
	w := dist.NewWorker("w0", 1)
	addr := lb.Add(w)
	coord := dist.NewCoordinator(lb, dist.Config{})
	coord.Register(w.ID(), addr, 1)
	lb.Kill(addr)

	ds := zipfDS(t)
	if _, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.SendV, wavelethist.Options{K: 10, Seed: 1}, coord); err == nil {
		t.Fatal("expected failure with the only worker dead")
	}
	if coord.AliveWorkers() != 0 {
		t.Fatalf("alive: got %d, want 0", coord.AliveWorkers())
	}
	lb.KillAfter(addr, 1<<30) // worker process restarted
	if !coord.Heartbeat("w0") {
		t.Fatal("heartbeat rejected for known worker")
	}
	if coord.AliveWorkers() != 1 {
		t.Fatalf("alive after heartbeat: got %d, want 1", coord.AliveWorkers())
	}
	if _, err := wavelethist.BuildDistributed(context.Background(), ds, wavelethist.SendV, wavelethist.Options{K: 10, Seed: 1}, coord); err != nil {
		t.Fatalf("build after revival: %v", err)
	}
}

// TestWaitForWorkers observes late registrations.
func TestWaitForWorkers(t *testing.T) {
	lb := dist.NewLoopback()
	coord := dist.NewCoordinator(lb, dist.Config{})
	go func() {
		time.Sleep(30 * time.Millisecond)
		w := dist.NewWorker("late", 1)
		coord.Register(w.ID(), lb.Add(w), 1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
}

// countingTransport counts the RPCs a build issues, and the map requests
// that carry any multi-round field.
type countingTransport struct {
	dist.Transport
	maps, roundFields, releases atomic.Int64
}

func (c *countingTransport) MapSplits(ctx context.Context, addr string, req *dist.MapRequest) (*dist.MapResponse, int64, int64, error) {
	c.maps.Add(1)
	if req.Round != 0 || req.Rounds != 0 || req.Broadcast != nil {
		c.roundFields.Add(1)
	}
	return c.Transport.MapSplits(ctx, addr, req)
}

func (c *countingTransport) Release(ctx context.Context, addr string, req *dist.ReleaseRequest) error {
	c.releases.Add(1)
	return c.Transport.Release(ctx, addr, req)
}

// TestOneRoundBuildIsOneFanOut: a one-round method runs through the same
// build loop as H-WTopk yet pays for none of the multi-round machinery —
// no release RPC, no worker lease, no round fields in its requests — and
// issues the map RPCs and wire bytes captured for partials layout 3
// (varint key deltas and small-integer values, raw floats otherwise) in
// never-deflated map responses. (Frames carry a random job id, so a
// build's wire bytes wander by a byte or two per RPC; the bound is 4.)
// H-WTopk on the same fleet is the contrast: three fan-outs, one release.
func TestOneRoundBuildIsOneFanOut(t *testing.T) {
	ds := zipfDS(t)
	for _, tc := range []struct {
		method         wavelethist.Method
		maps, releases int64
		wire           int64
	}{
		{wavelethist.SendV, 8, 0, 62067},
		{wavelethist.TwoLevelS, 8, 0, 4196},
		{wavelethist.HWTopk, 24, 1, 26388},
	} {
		t.Run(string(tc.method), func(t *testing.T) {
			lb := dist.NewLoopback()
			ct := &countingTransport{Transport: lb}
			coord := dist.NewCoordinator(ct, dist.Config{})
			w := dist.NewWorker("w0", 1)
			coord.Register(w.ID(), lb.Add(w), w.Capacity())
			got, err := wavelethist.BuildDistributed(context.Background(), ds, tc.method, wavelethist.Options{K: 25, Seed: 7}, coord)
			if err != nil {
				t.Fatal(err)
			}
			if ct.maps.Load() != tc.maps || ct.releases.Load() != tc.releases {
				t.Errorf("RPCs: %d map + %d release, want %d + %d", ct.maps.Load(), ct.releases.Load(), tc.maps, tc.releases)
			}
			if d := got.WireBytes - tc.wire; d < -4*tc.maps || d > 4*tc.maps {
				t.Errorf("wire bytes = %d, want %d ± %d", got.WireBytes, tc.wire, 4*tc.maps)
			}
			if n := ct.roundFields.Load(); (n != 0) != (tc.releases != 0) {
				t.Errorf("%d map requests carried round fields", n)
			}
			if n := len(w.Leases()); n != 0 {
				t.Errorf("%d worker leases left behind", n)
			}
		})
	}
}

// TestExactMethodsAgreeOnFleet is core's TestExactMethodsAgree through a
// 3-worker loopback fleet: Send-V, Send-Coef and H-WTopk select the
// identical coefficient set there too.
func TestExactMethodsAgreeOnFleet(t *testing.T) {
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: 20000, Domain: 1 << 12, Alpha: 1.1, Seed: 7, ChunkSize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := dist.NewLoopbackCluster(3, 2, dist.Config{})
	build := func(m wavelethist.Method) map[int64]float64 {
		res, err := wavelethist.BuildDistributed(context.Background(), ds, m, wavelethist.Options{K: 10, Seed: 3}, coord)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		out := make(map[int64]float64)
		for _, c := range res.Histogram.Coefficients() {
			out[c.Index] = c.Value
		}
		return out
	}
	want := build(wavelethist.SendV)
	for _, m := range []wavelethist.Method{wavelethist.SendCoef, wavelethist.HWTopk} {
		got := build(m)
		if len(got) != len(want) {
			t.Fatalf("%s: %d coefficients, want %d", m, len(got), len(want))
		}
		for i, v := range got {
			if w, ok := want[i]; !ok || math.Abs(v-w) > 1e-9*(1+math.Abs(w)) {
				t.Errorf("%s: coefficient %d = %v, Send-V has %v (selected: %v)", m, i, v, w, ok)
			}
		}
	}
}
