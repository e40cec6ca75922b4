package serve

import (
	"log"
	"os"
	"path/filepath"
	"strings"

	"wavelethist"
	"wavelethist/internal/atomicfile"
)

// Maintainer persistence. A maintained histogram's full state — the
// tracked retained + shadow coefficient set — is saved next to the
// registry snapshots as <name>.wmnt (the versioned WMNT codec in the
// wavelethist serialize layer) whenever the maintainer is created or
// republishes. On restart the server re-seeds its maintainers from those
// files, so incremental maintenance survives a daemon bounce with the
// exact partition it had at the last republish instead of falling back to
// a cold re-seed from the published top-k (which would forget every
// shadow coefficient adopted since the build).
//
// Persistence is best-effort and crash-consistent: files are written
// tmp+rename, and a .wmnt that fails validation or no longer matches its
// registry entry (dropped name, 2D rebuild, different domain) is removed
// rather than loaded.

// extMaint is the maintainer snapshot extension; OpenRegistry ignores it.
const extMaint = ".wmnt"

// persistMaint writes name's maintainer state. Best-effort: an error
// costs restart freshness, never a request. It never leaves a .tmp
// behind, and says so once per name rather than on every republish.
func (s *Server) persistMaint(name string, mh *wavelethist.MaintainedHistogram) {
	if s.cfg.SnapshotDir == "" {
		return
	}
	b, err := mh.MarshalBinary()
	if err != nil {
		return
	}
	if err := atomicfile.WriteFile(atomicfile.OS, filepath.Join(s.cfg.SnapshotDir, name+extMaint), b); err != nil {
		if _, warned := s.persistWarned.LoadOrStore(name, struct{}{}); !warned {
			log.Printf("serve: maintainer snapshot for %q not saved (a restart re-seeds it from the published histogram): %v", name, err)
		}
	}
}

// removeMaintFile deletes name's maintainer snapshot (its lineage was
// superseded by a rebuild, or the name was dropped).
func (s *Server) removeMaintFile(name string) {
	if s.cfg.SnapshotDir == "" {
		return
	}
	os.Remove(filepath.Join(s.cfg.SnapshotDir, name+extMaint))
}

// loadMaints re-seeds live maintainers from *.wmnt files at startup,
// after the registry itself has loaded. Runs before the server handles
// requests, so it can write s.maints without locking.
func (s *Server) loadMaints() {
	dir := s.cfg.SnapshotDir
	if dir == "" {
		return
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), extMaint) {
			continue
		}
		name := strings.TrimSuffix(de.Name(), extMaint)
		path := filepath.Join(dir, de.Name())
		cur, ok := s.reg.Lookup(name)
		if !ok || cur.Is2D() {
			os.Remove(path) // orphaned by a drop or a 2D rebuild
			continue
		}
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		mh, err := wavelethist.UnmarshalMaintainedHistogram(b)
		if err != nil || mh.Domain() != cur.H.Domain() {
			os.Remove(path) // corrupt or from a different-domain build
			continue
		}
		s.maints[name] = &maintained{mh: mh, base: cur.Version}
		s.seeds["snapshot"].Inc()
	}
}
