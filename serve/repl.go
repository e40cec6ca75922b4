package serve

import (
	"encoding"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"wavelethist/dist"
)

// Replication surface. A primary wavehistd exposes POST /v1/repl/pull:
// replicas send the highest registry version they have applied and get
// back every entry published after it (full histogram blobs — summaries
// are kilobytes, so "log shipping" degenerates to shipping the changed
// snapshots) plus the complete live name set for drop detection. Request
// and response are WDF1 frames (dist/replcodec.go); any other
// Content-Type is a 415.
//
// A server started read-only (Config.ReadOnly, the -replica-of mode)
// rejects every mutating endpoint with 403 until POST /v1/promote flips
// it writable — the failover path when the primary dies.

// ReplStatus is a replica's view of its sync progress, reported under
// "replication" in GET /v1/stats. The ha.Replica sync loop installs it
// after every pull.
type ReplStatus struct {
	// Primary is the upstream base URL this server replicates from.
	Primary string `json:"primary"`
	// Version is the primary registry version this replica has fully
	// applied — the replication cursor.
	Version uint64 `json:"version"`
	// Epoch is the primary registry epoch the cursor was minted under
	// (0 = never synced) — the wavehist_repl_epoch gauge.
	Epoch uint64 `json:"epoch,omitempty"`
	// EpochResets counts cursor resets forced by a primary epoch change
	// (restarted or promoted primary) — wavehist_repl_epoch_resets_total.
	EpochResets uint64 `json:"epoch_resets,omitempty"`
	// SyncedAt is when the last successful pull completed.
	SyncedAt time.Time `json:"synced_at"`
	// LastAttempt is when the last pull was attempted, success or not.
	LastAttempt time.Time `json:"last_attempt,omitempty"`
	// FirstAttempt is when the first pull was attempted (set once). It
	// keeps the staleness gauge live for a replica that has NEVER synced
	// (SyncedAt zero forever), where the sync-stalled alert would
	// otherwise stay quiet exactly while replication is broken.
	FirstAttempt time.Time `json:"first_attempt,omitempty"`
	// LagVersions is how many registry versions the primary was ahead of
	// this replica's cursor at the last pull that learned the primary's
	// version (0 when caught up) — the wavehist_repl_lag_versions gauge.
	// Updated on failed pulls too, from the highest primary version the
	// replica has ever observed.
	LagVersions uint64 `json:"lag_versions"`
	// Error is the last sync failure ("" while healthy). A stale
	// SyncedAt plus a non-empty Error is the "primary is down" signal.
	Error string `json:"error,omitempty"`
}

// ReadOnly reports whether the server is in replica mode (mutations 403).
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// Promote flips a read-only replica writable, reporting whether a
// promotion happened (false = already writable). Promotion is one atomic
// bit: the replica's registry already holds the replicated histograms, so
// there is no catch-up phase — reads never pause and writes are accepted
// from the next request on. The epoch is bumped so the new write lineage
// is distinguishable from the dead primary's; for fenced promotion with
// an explicit token see PromoteEpoch (epoch.go).
func (s *Server) Promote() bool {
	_, err := s.PromoteEpoch(0)
	return err == nil
}

// SetReplStatus installs the replica's sync progress for /v1/stats.
func (s *Server) SetReplStatus(st ReplStatus) { s.repl.Store(&st) }

// ReplStatus returns the last installed sync status (zero value if this
// server never synced — i.e. it is a primary).
func (s *Server) ReplStatus() ReplStatus {
	if st := s.repl.Load(); st != nil {
		return *st
	}
	return ReplStatus{}
}

// writable guards mutating handlers: a read replica refuses writes so the
// replicated registry stays a pure function of the primary's.
func (s *Server) writable(w http.ResponseWriter) bool {
	if s.readOnly.Load() {
		writeErr(w, http.StatusForbidden,
			"server is a read replica; send writes to the primary or POST /v1/promote")
		return false
	}
	return true
}

// pullResponse assembles the catch-up payload for a replica at version
// since. One registry snapshot resolution; entries come back in install-
// version order so a replica that applies them sequentially is always at
// a prefix-consistent version. A request epoch that does not match this
// server's forces a full snapshot (since 0): the replica's cursor was
// minted under a different write lineage — most likely this primary
// restarted and its version counter restarted with it — so positions are
// not comparable and trusting the cursor would strand the replica on
// stale data.
func (s *Server) pullResponse(since, reqEpoch uint64) *dist.ReplPullResponse {
	epoch := s.epoch.Load()
	if reqEpoch != 0 && reqEpoch != epoch {
		since = 0
	}
	snap := s.reg.Snapshot()
	resp := &dist.ReplPullResponse{Version: snap.Version(), Epoch: epoch, Since: since, Names: snap.Names()}
	for _, e := range snap.EntriesSince(since) {
		// The served histogram ships, a maintained entry's included: its
		// blob's magic names its kind.
		var h encoding.BinaryMarshaler = e.H
		if e.Is2D() {
			h = e.H2D
		}
		blob, err := h.MarshalBinary()
		if err != nil {
			// A published histogram always marshals (it was validated on
			// the way in); skip defensively rather than torn-replicate.
			continue
		}
		resp.Entries = append(resp.Entries, dist.ReplEntry{Name: e.Name, Version: e.Version, Blob: blob})
	}
	return resp
}

func (s *Server) handleReplPull(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("Content-Type") != dist.ContentTypeBinary {
		writeErr(w, http.StatusUnsupportedMediaType, "POST /v1/repl/pull takes %s pull frames", dist.ContentTypeBinary)
		return
	}
	frame, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	req, err := dist.DecodeReplPullRequest(frame)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad pull request: %v", err)
		return
	}
	w.Header().Set("Content-Type", dist.ContentTypeBinary)
	w.Write(dist.EncodeReplPullResponse(s.pullResponse(req.Since, req.Epoch)))
}

// fenceRequest is the optional JSON body of /v1/promote and /v1/demote:
// an epoch fencing token. An empty body (epoch 0) is the manual
// operator path — unfenced promote/demote.
type fenceRequest struct {
	Epoch uint64 `json:"epoch"`
}

func decodeFence(r *http.Request) (fenceRequest, error) {
	var req fenceRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		return req, err
	}
	if len(body) == 0 {
		return req, nil
	}
	return req, json.Unmarshal(body, &req)
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	req, err := decodeFence(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad promote request: %v", err)
		return
	}
	epoch, err := s.PromoteEpoch(req.Epoch)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"promoted": true,
		"version":  s.reg.Version(),
		"epoch":    epoch,
	})
}

// handleDemote fences a writable server read-only. The router posts it
// at a resurrected old primary (with the fencing token of the lineage
// that superseded it) so a node that died as a primary cannot come back
// and accept writes — the split-brain guard.
func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	req, err := decodeFence(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad demote request: %v", err)
		return
	}
	demoted, err := s.Demote(req.Epoch)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"demoted":   demoted,
		"read_only": true,
		"epoch":     s.epoch.Load(),
	})
}
