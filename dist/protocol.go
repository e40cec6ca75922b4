// Package dist executes wavelet-histogram builds across real processes:
// a coordinator partitions a dataset into splits, assigns them to a fleet
// of worker processes over a stdlib-only HTTP protocol — length-prefixed
// binary frames (codec.go) — and merges the workers' mergeable partial
// summaries (internal/core.SplitPartial) into the final histogram: the
// paper's Map/Shuffle/Reduce made multi-process, with communication
// measured on the actual request and response payloads instead of
// modeled. The coordinator is a core.RoundPlan's RPC map side: the
// plan's one loop (RoundPlan.Run) asks it for each round, and it fans the
// round out as map RPCs that carry the plan's broadcast and delivers each
// response's partials to the plan's reduce — once for the one-round
// methods, three times for H-WTopk.
//
// The fleet is dynamic: workers register with the coordinator and keep a
// heartbeat; splits assigned to a worker that crashes or goes silent are
// re-assigned to the survivors, and per-split RNG derivation makes the
// result identical regardless of which worker ran which split. An
// in-process Loopback transport runs the same coordinator and worker code
// without sockets, for tests and for wavehistd's single-binary -workers
// mode.
package dist

import "wavelethist/internal/core"

// Protocol endpoints. The coordinator serves the register/heartbeat/
// workers/fleet endpoints (mounted into wavehistd); each worker serves
// map, release, state and ping.
const (
	PathRegister  = "/dist/v1/register"
	PathHeartbeat = "/dist/v1/heartbeat"
	PathWorkers   = "/dist/v1/workers"
	PathFleet     = "/dist/v1/fleet"
	PathMap       = "/dist/v1/map"
	PathRelease   = "/dist/v1/release"
	PathState     = "/dist/v1/state"
	PathPing      = "/dist/v1/ping"
	// PathTrace prefixes GET /dist/v1/trace/{jobID} on the coordinator.
	PathTrace = "/dist/v1/trace/"
)

// RegisterRequest announces a worker to the coordinator. Addr is the URL
// the coordinator dials back for map RPCs ("http://host:port", or
// "loopback://name" for in-process workers).
type RegisterRequest struct {
	ID       string
	Addr     string
	Capacity int
}

// RegisterResponse acknowledges registration and tells the worker how
// often to heartbeat.
type RegisterResponse struct {
	OK              bool
	HeartbeatMillis int64
}

// HeartbeatRequest keeps a registered worker alive.
type HeartbeatRequest struct {
	ID string
}

// HeartbeatResponse reports whether the coordinator still knows the
// worker; on !OK the worker re-registers (coordinator restart).
type HeartbeatResponse struct {
	OK bool
}

// MapRequest assigns a batch of splits to a worker: the dataset recipe,
// the method, its parameters, and the split indices to run. For
// multi-round methods it additionally names the round, the job's total
// round count (the worker's cue to open a per-job state lease), and the
// coordinator's broadcast blob for the round — round 2 ships T1/m, round 3
// ships T1/m plus the candidate set R (core's binary codec). Round 0
// means a one-round method.
type MapRequest struct {
	JobID   string
	Method  string
	Params  core.Params
	Dataset DatasetSpec
	Splits  []int

	Round     int
	Rounds    int
	Broadcast []byte
}

// MapResponse returns the batch's mergeable partials
// (core.EncodePartials) or an application error. Replayed
// lists assigned splits whose earlier-round state this worker did not hold
// (lost lease or new owner) and had to rebuild by replaying earlier
// rounds locally. Cached lists assigned splits served from the worker's
// partial cache — re-shipped without recomputation.
type MapResponse struct {
	JobID    string
	Partials []byte
	Replayed []int
	Cached   []int
	Error    string
}

// ReleaseRequest drops a worker's state lease for a finished (or
// canceled/failed) multi-round job.
type ReleaseRequest struct {
	JobID string
}

// ReleaseResponse acknowledges a release; Released reports whether a
// lease actually existed (false is normal: the worker never served the
// job, or its lease already expired).
type ReleaseResponse struct {
	OK       bool
	Released bool
}

// WorkersResponse is the observability payload of GET /dist/v1/workers.
type WorkersResponse struct {
	Workers []WorkerInfo `json:"workers"`
}

// LeaseView describes one per-job state lease held by a worker
// (GET /dist/v1/state on the worker).
type LeaseView struct {
	JobID   string `json:"job_id"`
	Entries int    `json:"entries"` // state files held (≈ splits × rounds)
	// Bytes is the size of the paper's state files the lease stands for,
	// not the (smaller) bytes the worker keeps to answer for them.
	Bytes      int64 `json:"bytes"`
	AgeMillis  int64 `json:"age_millis"`
	IdleMillis int64 `json:"idle_millis"`
}

// WorkerStateResponse is the payload of GET /dist/v1/state: the worker's
// live leases, dataset cache occupancy, and partial-cache effectiveness.
type WorkerStateResponse struct {
	ID       string         `json:"id"`
	Capacity int            `json:"capacity"`
	Leases   []LeaseView    `json:"leases"`
	Datasets int            `json:"datasets"`
	Cache    CacheStatsView `json:"cache"`
}
