package atomicfile

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// memFS models what a power loss does to a directory: file content
// survives only as of the file's last fsync (unsynced content comes back
// torn), and directory operations since the last directory fsync may or
// may not have reached the disk. It can fail one step, or lose power right
// after one.
type memFS struct {
	dir     string
	live    map[string]*inode // the directory a reader sees now
	durable map[string]*inode // the directory as of its last fsync
	step    int               // steps performed so far
	failAt  int               // step to fail (1-based; 0 = none)
	dieAt   int               // step after which power is lost (0 = none)
}

type inode struct {
	data   []byte
	synced []byte // content as of the last fsync
	torn   bool   // written since
}

var (
	errInjected = errors.New("injected failure")
	powerLoss   = errors.New("power loss") // panic value: nothing runs after it
)

func newMemFS(dir string, files map[string]string) *memFS {
	m := &memFS{dir: dir, live: map[string]*inode{}, durable: map[string]*inode{}}
	for name, content := range files {
		ino := &inode{data: []byte(content), synced: []byte(content)}
		m.live[name], m.durable[name] = ino, ino
	}
	return m
}

// begin gates every step: it panics once power is gone and reports whether
// this step is the one to fail.
func (m *memFS) begin() error {
	if m.dieAt != 0 && m.step >= m.dieAt {
		panic(powerLoss)
	}
	m.step++
	if m.step == m.failAt {
		return errInjected
	}
	return nil
}

func (m *memFS) FS() FS {
	return FS{
		WriteFile: func(name string, data []byte, _ os.FileMode) error {
			if err := m.begin(); err != nil {
				return err
			}
			m.live[name] = &inode{data: append([]byte(nil), data...), torn: true}
			return nil
		},
		Sync: func(name string) error {
			if err := m.begin(); err != nil {
				return err
			}
			if name == m.dir {
				m.durable = map[string]*inode{}
				for n, ino := range m.live {
					m.durable[n] = ino
				}
				return nil
			}
			ino, ok := m.live[name]
			if !ok {
				return os.ErrNotExist
			}
			ino.synced, ino.torn = ino.data, false
			return nil
		},
		Rename: func(oldpath, newpath string) error {
			if err := m.begin(); err != nil {
				return err
			}
			m.live[newpath] = m.live[oldpath]
			delete(m.live, oldpath)
			return nil
		},
		Remove: func(name string) error {
			delete(m.live, name) // cleanup is not a crash point of interest
			return nil
		},
	}
}

// afterPowerLoss returns what a reader finds at name once the machine is
// back: in the directory as last synced (metadata lost) and in the live
// one (metadata survived). Unsynced content reads back torn.
func (m *memFS) afterPowerLoss(name string) (outcomes []string) {
	for _, dir := range []map[string]*inode{m.durable, m.live} {
		ino, ok := dir[name]
		switch {
		case !ok:
			outcomes = append(outcomes, "<missing>")
		case ino.torn:
			outcomes = append(outcomes, "<torn>")
		default:
			outcomes = append(outcomes, string(ino.synced))
		}
	}
	return outcomes
}

// TestWriteFileCrashPoints fails, then loses power after, each step of
// WriteFile and checks that path reads back as the old or the new content
// — never torn, never missing — and that a nil return means durable.
func TestWriteFileCrashPoints(t *testing.T) {
	const dir, path, steps = "/snap", "/snap/EPOCH", 4 // write tmp, sync tmp, rename, sync dir
	oldOrNew := func(t *testing.T, m *memFS) {
		t.Helper()
		for _, got := range m.afterPowerLoss(path) {
			if got != "old" && got != "new" {
				t.Errorf("after power loss %s reads %s", path, got)
			}
		}
	}
	for k := 1; k <= steps; k++ {
		t.Run(fmt.Sprintf("fail-step-%d", k), func(t *testing.T) {
			m := newMemFS(dir, map[string]string{path: "old"})
			m.failAt = k
			err := WriteFile(m.FS(), path, []byte("new"))
			if !errors.Is(err, errInjected) {
				t.Fatalf("step %d failed but WriteFile returned %v", k, err)
			}
			if _, ok := m.live[path+".tmp"]; ok {
				t.Errorf("step %d: tmp file left behind", k)
			}
			want := "old"
			if k == steps {
				want = "new" // only the directory sync failed
			}
			if got := string(m.live[path].data); got != want {
				t.Errorf("step %d: %s reads %q, want %q", k, path, got, want)
			}
			oldOrNew(t, m)
		})
		t.Run(fmt.Sprintf("power-loss-after-step-%d", k), func(t *testing.T) {
			m := newMemFS(dir, map[string]string{path: "old"})
			m.dieAt = k
			func() {
				defer func() {
					if r := recover(); r != nil && r != powerLoss {
						panic(r)
					}
				}()
				err := WriteFile(m.FS(), path, []byte("new"))
				if k < steps {
					t.Fatalf("WriteFile returned %v after power was lost at step %d", err, k)
				}
			}()
			oldOrNew(t, m)
		})
	}
	// A nil return promises durability: both views hold the new content.
	m := newMemFS(dir, map[string]string{path: "old"})
	if err := WriteFile(m.FS(), path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got := m.afterPowerLoss(path); got[0] != "new" || got[1] != "new" {
		t.Errorf("returned nil yet a power loss leaves %v", got)
	}
	// The model has teeth: renaming without the file sync is caught.
	m = newMemFS(dir, map[string]string{path: "old"})
	fsys := m.FS()
	fsys.WriteFile(path+".tmp", []byte("new"), 0o644)
	fsys.Rename(path+".tmp", path)
	if got := m.afterPowerLoss(path); got[1] != "<torn>" {
		t.Errorf("unsynced rename should read back torn, got %v", got)
	}
}

// TestWriteFileOS runs the real file system once each way.
func TestWriteFileOS(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	for _, content := range []string{"one", "two"} {
		if err := WriteFile(OS, path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if b, err := os.ReadFile(path); err != nil || string(b) != content {
			t.Fatalf("read back %q, %v; want %q", b, err, content)
		}
	}
	if err := WriteFile(OS, filepath.Join(path, "under-a-file"), []byte("x")); err == nil {
		t.Error("writing under a regular file succeeded")
	}
	if ents, _ := os.ReadDir(filepath.Dir(path)); len(ents) != 1 {
		t.Errorf("left %d entries, want 1", len(ents))
	}
}
