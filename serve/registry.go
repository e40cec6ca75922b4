// Package serve turns built wavelet histograms into a queryable service:
// a versioned, concurrent registry of named histograms plus an HTTP JSON
// API (see Server) — the serving layer a query optimizer or analytics
// frontend hits for point-frequency and range-selectivity estimates.
//
// The registry is built for read-heavy traffic: lookups are lock-free
// (one atomic pointer load), so a background rebuild or a maintainer
// republish never blocks query goroutines. Writers serialize among
// themselves and install a new immutable snapshot with a single pointer
// swap; readers that already hold the old snapshot keep a consistent
// view until their query completes.
package serve

import (
	"encoding"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavelethist"
	"wavelethist/dist"
	"wavelethist/internal/atomicfile"
)

// fileExt names every entry file, whatever its kind: the blob's magic
// says which (see Install).
const fileExt = ".whst"

// Entry is one published histogram: an immutable (name, version, summary)
// triple plus its accumulated serving stats. Exactly one of H and H2D is
// non-nil. Entries are never mutated after publication — a republish
// installs a fresh Entry carrying the same *Stats — except that the
// name's first maintainer claims seed.
type Entry struct {
	Name    string
	Version uint64 // registry version at which this entry was installed
	H       *wavelethist.Histogram
	H2D     *wavelethist.Histogram2D
	Stats   *Stats

	// seed is the maintainer state a WMNT blob installed with H, until
	// Server.maintainer claims it.
	seed atomic.Pointer[wavelethist.MaintainedHistogram]
}

// Is2D reports whether the entry holds a 2D histogram.
func (e *Entry) Is2D() bool { return e.H2D != nil }

// K returns the entry's retained-coefficient count.
func (e *Entry) K() int {
	if e.Is2D() {
		return e.H2D.K()
	}
	return e.H.K()
}

// Domain returns the key-domain size (grid side for 2D).
func (e *Entry) Domain() int64 {
	if e.Is2D() {
		return e.H2D.Side()
	}
	return e.H.Domain()
}

// Point returns the estimated frequency of key x, recording stats.
func (e *Entry) Point(x int64) (float64, error) {
	defer e.Stats.Point.Start()()
	if e.Is2D() {
		return 0, fmt.Errorf("serve: %q is 2D; query with x and y", e.Name)
	}
	return e.estimate(&BatchQuery{Op: "point", Key: x})
}

// Range returns the estimated number of records with keys in [lo, hi]
// (inclusive), recording stats. lo and hi clamp to the domain, and an
// empty intersection — lo > hi included — estimates 0, never an error.
func (e *Entry) Range(lo, hi int64) (float64, error) {
	defer e.Stats.Range.Start()()
	if e.Is2D() {
		return 0, fmt.Errorf("serve: %q is 2D; range queries need xlo/xhi/ylo/yhi", e.Name)
	}
	return e.estimate(&BatchQuery{Op: "range", Lo: lo, Hi: hi})
}

// BatchQuery is one query in a batch request (POST /v1/hist/{name}/query);
// BatchResult is one per-query outcome. Both are the wire types of the
// router→shard query frames, so a decoded frame executes without copying.
type (
	BatchQuery  = dist.Query
	BatchResult = dist.QueryResult
)

// Batch answers queries[i] into results[i] (the slices must have equal
// length), recording one Batch stat for the whole call. Every sub-query
// resolves against this entry's immutable histogram snapshot and is
// answered through estimate, in request order, for 1D and 2D entries
// alike: a 1D lookup is one guided piece-table search and a 2D one walks
// the cell's or rectangle's ancestor pairs, so there is no walk for a
// batch to share. The steady state (well-formed queries) performs no
// allocations, so callers that reuse their slices — the HTTP batch
// handler's pooled buffers, benchmark loops — serve batches
// allocation-free.
func (e *Entry) Batch(queries []BatchQuery, results []BatchResult) {
	if len(results) != len(queries) {
		panic("serve: Batch slice length mismatch")
	}
	t0 := time.Now()
	for i := range queries {
		results[i] = result(e.estimate(&queries[i]))
	}
	e.Stats.Batch.Add(1, time.Since(t0))
	e.Stats.BatchQueries.Add(int64(len(queries)), 0)
}

// estimate answers one query off the entry's histogram, recording no
// stats: the per-query body of the batch loop, which the GET handler and
// Point and Range share. The entry's dimensionality picks the query's
// fields (a 1D point reads Key, a 2D one X and Y). A point off the
// domain, an unknown op and an estimate that is not finite are per-query
// errors. Ranges follow one contract at every layer (Representation.
// RangeSum, Histogram.RangeCount, here): bounds clamp to the domain, per
// axis in 2D, and an empty intersection — lo > hi included — estimates
// 0, never an error.
func (e *Entry) estimate(q *BatchQuery) (float64, error) {
	switch {
	case q.Op == "point" && e.Is2D():
		if s := e.H2D.Side(); q.X < 0 || q.X >= s || q.Y < 0 || q.Y >= s {
			return 0, fmt.Errorf("serve: cell (%d, %d) outside grid [0, %d)²", q.X, q.Y, s)
		}
		return finite(e.H2D.PointEstimate(q.X, q.Y))
	case q.Op == "point":
		if q.Key < 0 || q.Key >= e.H.Domain() {
			return 0, fmt.Errorf("serve: key %d outside domain [0, %d)", q.Key, e.H.Domain())
		}
		return finite(e.H.PointEstimate(q.Key))
	case q.Op == "range" && e.Is2D():
		return finite(e.H2D.RangeCount(q.XLo, q.XHi, q.YLo, q.YHi))
	case q.Op == "range":
		return finite(e.H.RangeCount(q.Lo, q.Hi))
	}
	return 0, fmt.Errorf("unknown op %q (want point or range)", q.Op)
}

// errNonFinite is the per-query error of an estimate that overflowed
// float64: encoding/json refuses ±Inf and NaN, so none is ever served.
var errNonFinite = errors.New("serve: estimate is not finite")

// finite passes a finite estimate through and turns any other into
// errNonFinite.
func finite(est float64) (float64, error) {
	if math.IsInf(est, 0) || math.IsNaN(est) {
		return 0, errNonFinite
	}
	return est, nil
}

// result is one estimate's per-query outcome on the batch wire.
func result(est float64, err error) BatchResult {
	if err != nil {
		return BatchResult{Error: err.Error()}
	}
	return BatchResult{Estimate: est}
}

// Snapshot is an immutable point-in-time view of the registry. Queries
// resolved against one snapshot are mutually consistent even while
// writers publish new versions.
type Snapshot struct {
	version uint64
	entries map[string]*Entry
}

// Version returns the registry version this snapshot reflects. The
// version advances by one on every publish or drop.
func (s *Snapshot) Version() uint64 { return s.version }

// Lookup returns the named entry.
func (s *Snapshot) Lookup(name string) (*Entry, bool) {
	e, ok := s.entries[name]
	return e, ok
}

// Names returns the published histogram names, sorted.
func (s *Snapshot) Names() []string {
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// EntriesSince returns the entries installed after registry version since,
// ordered by install version — the payload of a replication pull. Dropped
// names never appear here; replicas detect drops by diffing the snapshot's
// full name set against their own.
func (s *Snapshot) EntriesSince(since uint64) []*Entry {
	var out []*Entry
	for _, e := range s.entries {
		if e.Version > since {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// Registry is a versioned, concurrent histogram registry. Reads are
// lock-free; writes (Publish, Drop) serialize on an internal mutex,
// copy the entry map, and swap in the new snapshot atomically.
//
// With a snapshot directory, every publish writes the name's one entry
// file, <name>.whst (atomic tmp+rename), and OpenRegistry reloads the
// directory at startup — a restart serves the same summaries it served
// before, and a maintained name resumes from the state published with
// them.
type Registry struct {
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[Snapshot]
	dir  string // "" = in-memory only
}

// NewRegistry returns an empty in-memory registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.snap.Store(&Snapshot{entries: map[string]*Entry{}})
	return r
}

// OpenRegistry returns a registry persisted under dir, installing every
// <name>.whst entry file there in one scan. The directory is created if
// missing. Files of older builds are upgraded in the same scan: a
// <name>.wh2d, already a WH2D blob, is renamed to <name>.whst; a
// <name>.wmnt maintainer sidecar is removed with a log line, because
// nothing tied it to its snapshot's version, so that name's next update
// reseeds from the published top-k. A corrupt entry file fails the open:
// refusing to start is safer than silently serving a poisoned registry.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: snapshot dir: %w", err)
	}
	// r.dir stays unset during the load loop so installing an entry file
	// doesn't rewrite the file it came from.
	r := NewRegistry()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot dir: %w", err)
	}
	for _, de := range ents {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(dir, de.Name())
		ext := filepath.Ext(de.Name())
		name := strings.TrimSuffix(de.Name(), ext)
		switch ext {
		case fileExt:
		case ".wh2d":
			if err := os.Rename(path, filepath.Join(dir, name+fileExt)); err != nil {
				return nil, fmt.Errorf("serve: snapshot %s: %w", de.Name(), err)
			}
			path = filepath.Join(dir, name+fileExt)
		case ".wmnt":
			log.Printf("serve: removed %s: a maintainer sidecar is not tied to its snapshot's version; %q reseeds from the published histogram", de.Name(), name)
			os.Remove(path)
			continue
		default:
			// Clear tmp files orphaned by a crash mid-persist.
			if strings.Contains(de.Name(), ".tmp") {
				os.Remove(path)
			}
			continue
		}
		if err := ValidName(name); err != nil {
			return nil, fmt.Errorf("serve: snapshot %s: %w", de.Name(), err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot %s: %w", de.Name(), err)
		}
		if _, err := r.Install(name, b); err != nil {
			return nil, fmt.Errorf("serve: snapshot %s: %w", de.Name(), err)
		}
	}
	r.dir = dir
	return r, nil
}

// ValidName reports whether name is usable as a histogram name: non-empty,
// at most 128 bytes, letters/digits/dot/dash/underscore only (it doubles
// as a snapshot file name).
func ValidName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("serve: invalid histogram name %q", name)
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return fmt.Errorf("serve: invalid histogram name %q", name)
		}
	}
	if name == "." || name == ".." {
		return fmt.Errorf("serve: invalid histogram name %q", name)
	}
	return nil
}

// Snapshot returns the current immutable view. One atomic load; never
// blocks, even mid-publish.
func (r *Registry) Snapshot() *Snapshot { return r.snap.Load() }

// Version returns the current registry version.
func (r *Registry) Version() uint64 { return r.snap.Load().version }

// Lookup returns the current entry for name.
func (r *Registry) Lookup(name string) (*Entry, bool) {
	return r.snap.Load().Lookup(name)
}

// Publish installs (or replaces) the named 1D histogram and returns its
// entry. Stats carry over across republishes of the same name.
func (r *Registry) Publish(name string, h *wavelethist.Histogram) (*Entry, error) {
	if h == nil {
		return nil, fmt.Errorf("serve: nil histogram")
	}
	return r.publishAs(&Entry{Name: name, H: h}, h)
}

// Publish2D installs (or replaces) the named 2D histogram.
func (r *Registry) Publish2D(name string, h *wavelethist.Histogram2D) (*Entry, error) {
	if h == nil {
		return nil, fmt.Errorf("serve: nil histogram")
	}
	return r.publishAs(&Entry{Name: name, H2D: h}, h)
}

// Install publishes an encoded blob under name, decoded by its magic: a
// WHST or WH2D blob is the histogram; a WMNT blob is a maintainer's state,
// whose histogram is served and whose state seeds the name's maintainer.
// With a snapshot dir the blob itself becomes the entry file.
func (r *Registry) Install(name string, blob []byte) (*Entry, error) {
	v, err := wavelethist.Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	e := &Entry{Name: name}
	switch v := v.(type) {
	case *wavelethist.Histogram:
		e.H = v
	case *wavelethist.Histogram2D:
		e.H2D = v
	case *wavelethist.MaintainedHistogram:
		e.H = v.Histogram()
		e.seed.Store(v)
	}
	return r.publish(e, blob)
}

// publishAs publishes e with state's encoding as its entry file.
func (r *Registry) publishAs(e *Entry, state encoding.BinaryMarshaler) (*Entry, error) {
	file, err := r.encode(e.Name, state)
	if err != nil {
		return nil, err
	}
	return r.publish(e, file)
}

// encode returns state's encoding — the entry file a publish of name
// writes — or nil when r has no snapshot dir. It runs before r.mu is
// taken: a maintainer's state takes milliseconds to marshal.
func (r *Registry) encode(name string, state encoding.BinaryMarshaler) ([]byte, error) {
	if r.dir == "" {
		return nil, nil
	}
	b, err := state.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("serve: marshal %q: %w", name, err)
	}
	return b, nil
}

// publish installs e under e.Name. With a snapshot dir it first replaces
// the name's entry file with file (atomic tmp+rename, so a crash
// mid-write never leaves a torn file); a failed write publishes nothing.
func (r *Registry) publish(e *Entry, file []byte) (*Entry, error) {
	if err := ValidName(e.Name); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir != "" {
		if err := atomicfile.WriteFile(atomicfile.OS, filepath.Join(r.dir, e.Name+fileExt), file); err != nil {
			return nil, fmt.Errorf("serve: persist %q: %w", e.Name, err)
		}
	}
	old := r.snap.Load()
	next := &Snapshot{
		version: old.version + 1,
		entries: make(map[string]*Entry, len(old.entries)+1),
	}
	for n, oe := range old.entries {
		next.entries[n] = oe
	}
	if prev, ok := old.entries[e.Name]; ok {
		e.Stats = prev.Stats // serving counters survive republish
	} else {
		e.Stats = NewStats()
	}
	e.Version = next.version
	next.entries[e.Name] = e
	r.snap.Store(next)
	return e, nil
}

// Drop removes the named histogram (and its snapshot file, if any),
// advancing the registry version. It reports whether the name existed.
func (r *Registry) Drop(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.snap.Load()
	if _, ok := old.entries[name]; !ok {
		return false
	}
	if r.dir != "" {
		os.Remove(filepath.Join(r.dir, name+fileExt))
	}
	next := &Snapshot{
		version: old.version + 1,
		entries: make(map[string]*Entry, len(old.entries)-1),
	}
	for n, oe := range old.entries {
		if n != name {
			next.entries[n] = oe
		}
	}
	r.snap.Store(next)
	return true
}
