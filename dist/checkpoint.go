package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"wavelethist/internal/atomicfile"
	"wavelethist/internal/core"
)

// Coordinator checkpointing. A multi-round build's only irreplaceable
// state between round barriers is the sequence of per-round partial sets
// the coordinator has already collected: the reducer state (ŵ/F entries,
// T1, the candidate set R) is a deterministic function of those partials,
// recomputed by running them through RoundPlan.Run with a side that
// delivers the recorded partials. So a checkpoint is just the completed
// rounds' partials, encoded with the same partial codec the wire uses
// (one versioning point for frames and files), wrapped in one WDF1 frame
// and written atomically (tmp + rename) after each barrier. Restoring is
// bit-identical by the same determinism argument that makes distributed
// merges bit-identical, and saves the restored rounds' map RPCs, frames
// and fleet fan-out — not their map work: the fleet's next round finds no
// state lease and replays those rounds' map side for every split.

// checkpoint is the durable state of a partially-completed multi-round
// build.
type checkpoint struct {
	// Key is the build-shape key (dataset fingerprint, method, params) —
	// the same identity the partial cache and affinity map use.
	Key    string
	Method string
	Splits int
	// Rounds holds each completed round's partials in split order.
	Rounds [][]core.SplitPartial
}

// checkpointPath maps a build-shape key to its file. Keys contain
// non-filename characters (method names, param separators), so the name
// is a hash of the key.
func checkpointPath(dir, key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(dir, hex.EncodeToString(sum[:12])+".wckpt")
}

// encodeCheckpoint serializes a checkpoint as one WDF1 frame.
func encodeCheckpoint(ck *checkpoint) []byte {
	b := appendStr(nil, ck.Key)
	b = appendStr(b, ck.Method)
	b = appendUvarint(b, uint64(ck.Splits))
	b = appendUvarint(b, uint64(len(ck.Rounds)))
	for _, parts := range ck.Rounds {
		b = appendBlob(b, core.EncodePartials(parts))
	}
	return encodeFrame(msgCheckpoint, b)
}

// decodeCheckpoint is the inverse of encodeCheckpoint.
func decodeCheckpoint(frame []byte) (*checkpoint, error) {
	body, err := decodeFrame(frame, msgCheckpoint)
	if err != nil {
		return nil, err
	}
	r := &breader{b: body}
	ck := &checkpoint{
		Key:    r.str(),
		Method: r.str(),
		Splits: int(r.uvarint()),
	}
	n := int(r.uvarint())
	for i := 0; i < n && r.err == nil; i++ {
		blob := r.blob()
		if r.err != nil {
			break
		}
		parts, derr := core.DecodePartials(blob)
		if derr != nil {
			return nil, fmt.Errorf("dist: checkpoint round %d: %w", i+1, derr)
		}
		ck.Rounds = append(ck.Rounds, parts)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return ck, nil
}

// saveCheckpoint writes ck atomically. Best-effort durability: an error
// means the next restart re-runs rounds, not that this build fails.
func saveCheckpoint(dir string, ck *checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return atomicfile.WriteFile(atomicfile.OS, checkpointPath(dir, ck.Key), encodeCheckpoint(ck))
}

// loadCheckpoint returns the stored checkpoint for a build shape, or nil
// when none exists or the stored one does not match (different key after
// a hash collision, wrong method, wrong split count, corrupt file — all
// treated as "no checkpoint", never as a build failure). A round the plan
// refuses (a split missing or corrupt) is no checkpoint either: runPlan
// drops it.
func loadCheckpoint(dir, key, method string, splits, maxRounds int) *checkpoint {
	raw, err := os.ReadFile(checkpointPath(dir, key))
	if err != nil {
		return nil
	}
	ck, err := decodeCheckpoint(raw)
	if err != nil || ck.Key != key || ck.Method != method ||
		ck.Splits != splits || len(ck.Rounds) == 0 || len(ck.Rounds) >= maxRounds {
		return nil
	}
	return ck
}

// removeCheckpoint deletes a build shape's checkpoint (build completed).
func removeCheckpoint(dir, key string) {
	_ = os.Remove(checkpointPath(dir, key))
}
