package dist

import "time"

// SetWorkerLeaseTTL shortens (or widens) a worker's state-lease expiry
// for the external test package's lease tests.
func SetWorkerLeaseTTL(w *Worker, d time.Duration) {
	w.mu.Lock()
	w.ttl = d
	w.mu.Unlock()
}

// WorkerFailuresTotal reads wavehist_dist_worker_failures_total: every
// map RPC failure the coordinator blamed on a worker, drained ones too.
func WorkerFailuresTotal(c *Coordinator) int64 { return c.failuresTotal.Value() }
