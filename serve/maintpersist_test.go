package serve

import (
	"bytes"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wavelethist"
)

// TestPersistMaintFailureCleansUpAndLogsOnce: when the maintainer
// snapshot cannot be written — the snapshot dir is unwritable, or the
// rename into place fails — persistMaint leaves no .tmp behind and logs
// the failure once per name, not once per republish.
func TestPersistMaintFailureCleansUpAndLogsOnce(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })

	h := buildHist(t, 20000, 1<<12, 30, 5)
	mh, err := wavelethist.MaintainHistogram(h, h.K(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		wreck func(t *testing.T, dir string)
	}{
		// Gone rather than chmod'ed: root writes through a 0555 directory.
		{"unwritable dir", func(t *testing.T, dir string) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		}},
		// A non-empty directory squatting on the final name: the tmp
		// write succeeds and the rename fails.
		{"rename fails", func(t *testing.T, dir string) {
			if err := os.MkdirAll(filepath.Join(dir, "m"+extMaint, "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "snap")
			s, _ := newTestServer(t, Config{SnapshotDir: dir})
			tc.wreck(t, dir)
			logged.Reset()
			for i := 0; i < 3; i++ {
				s.persistMaint("m", mh)
			}
			s.persistMaint("other", mh)
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Errorf("left behind %v", tmps)
			}
			if n := strings.Count(logged.String(), `"m"`); n != 1 {
				t.Errorf("failure for m logged %d times, want once:\n%s", n, logged.String())
			}
		})
	}
}
