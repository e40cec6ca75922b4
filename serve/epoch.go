package serve

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"wavelethist/internal/atomicfile"
)

// Registry epochs. A server's epoch names its write lineage: it is
// bumped on every cold start and on every promotion, so two processes
// that could each believe they are the primary of a shard never share
// one. The epoch rides in the replication pull protocol — a replica
// whose cursor was minted under a different epoch resets to zero and
// re-snapshots instead of silently serving stale data (a restarted
// primary's version counter restarts from zero, so a replica already
// synced past it would otherwise pull nothing forever) — and in the
// promote/demote fencing handshake the router uses during failover.
//
// Persistence: with a SnapshotDir the epoch lives in an EPOCH file next
// to the histogram snapshots (read+1+rewrite on cold start, rewritten
// on promotion), giving a true monotonic counter per data directory.
// In-memory servers draw a random epoch instead: uniqueness across
// restarts is what fencing needs, and a fresh process has no counter to
// continue.

// epochFile is the name of the persisted epoch counter in SnapshotDir.
const epochFile = "EPOCH"

// ErrNotReplica is returned by ReplApply when the server is writable: a
// primary must never apply replicated entries on top of its own writes.
var ErrNotReplica = errors.New("serve: server is writable; refusing to apply replicated state")

// Epoch returns the server's current registry epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// initEpoch resolves the server's starting epoch: the persisted counter
// + 1, or a random draw for in-memory servers.
func (s *Server) initEpoch() error {
	if s.cfg.SnapshotDir == "" {
		s.epoch.Store(randomEpoch())
		return nil
	}
	prev, err := readEpochFile(s.cfg.SnapshotDir)
	if err != nil {
		return err
	}
	next := prev + 1
	if err := writeEpochFile(s.cfg.SnapshotDir, next); err != nil {
		return err
	}
	s.epoch.Store(next)
	return nil
}

// bumpEpoch advances the epoch to at least want (0 = current+1) and
// persists it. Callers hold promoteMu.
func (s *Server) bumpEpoch(want uint64) (uint64, error) {
	next := s.epoch.Load() + 1
	if want > next {
		next = want
	}
	if s.cfg.SnapshotDir != "" {
		if err := writeEpochFile(s.cfg.SnapshotDir, next); err != nil {
			return 0, err
		}
	}
	s.epoch.Store(next)
	return next, nil
}

func readEpochFile(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, epochFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("serve: read epoch: %w", err)
	}
	v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("serve: corrupt epoch file %s: %w", filepath.Join(dir, epochFile), perr)
	}
	return v, nil
}

// writeEpochFile persists the counter durably: a power loss must not roll
// back an epoch bump, or two lineages could share an epoch.
func writeEpochFile(dir string, v uint64) error {
	if err := atomicfile.WriteFile(atomicfile.OS, filepath.Join(dir, epochFile), []byte(strconv.FormatUint(v, 10)+"\n")); err != nil {
		return fmt.Errorf("serve: write epoch: %w", err)
	}
	return nil
}

// randomEpoch draws a non-zero epoch in [2^32, 2^62) for in-memory
// servers: large enough never to collide with a file-backed counter,
// bounded so fencing tokens (max-known + 1) cannot overflow.
func randomEpoch() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to a fixed high bit so the epoch is at least non-zero.
		return 1 << 40
	}
	return 1<<32 | binary.LittleEndian.Uint64(b[:])%(1<<62-1<<32)
}

// PromoteEpoch flips a read-only replica writable under an epoch
// fencing token. token 0 bumps the local counter (manual promotion);
// a non-zero token must exceed the current epoch — a stale router
// re-sending an old fence cannot promote a node the cluster has moved
// past. Returns the new epoch.
func (s *Server) PromoteEpoch(token uint64) (uint64, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.readOnly.Load() {
		return 0, fmt.Errorf("serve: already writable")
	}
	if token != 0 && token <= s.epoch.Load() {
		return 0, fmt.Errorf("serve: stale fencing token %d (epoch is %d)", token, s.epoch.Load())
	}
	epoch, err := s.bumpEpoch(token)
	if err != nil {
		return 0, err
	}
	s.readOnly.Store(false)
	return epoch, nil
}

// Demote fences a writable server read-only. A non-zero token must
// strictly exceed the server's epoch: the legitimate primary (whose
// epoch IS the cluster's fence) can never be demoted by a replay of its
// own token, while a superseded one (lower epoch) always can. token 0
// demotes unconditionally — the manual operator path. Returns false if
// the server was already read-only.
func (s *Server) Demote(token uint64) (bool, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if s.readOnly.Load() {
		return false, nil
	}
	if token != 0 && token <= s.epoch.Load() {
		return false, fmt.Errorf("serve: stale fencing token %d (epoch is %d)", token, s.epoch.Load())
	}
	s.readOnly.Store(true)
	return true, nil
}

// ReplApply runs fn (a replication apply) only while the server is a
// replica, holding the promotion lock shared so a concurrent promotion
// either completes strictly before the apply starts (the apply is then
// refused) or strictly after it finishes (the applied pull is a
// complete prefix). Promotion mid-pull can therefore never interleave
// with a half-applied batch — the view is always the old or the new
// epoch's prefix, never a torn mix.
func (s *Server) ReplApply(fn func() error) error {
	s.promoteMu.RLock()
	defer s.promoteMu.RUnlock()
	if !s.readOnly.Load() {
		return ErrNotReplica
	}
	return fn()
}
