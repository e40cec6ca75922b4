// Package atomicfile replaces a file so that a crash or a power loss at
// any point leaves the old content or the new, never a torn or missing
// file. Every persistent root of the system is written through it.
package atomicfile

import (
	"os"
	"path/filepath"
)

// FS is the file-system surface WriteFile touches, one field per step;
// tests substitute one that fails or loses power after any of them.
type FS struct {
	WriteFile func(name string, data []byte, perm os.FileMode) error
	Sync      func(name string) error // fsync a file or a directory
	Rename    func(oldpath, newpath string) error
	Remove    func(name string) error
}

// OS is the real file system.
var OS = FS{os.WriteFile, syncPath, os.Rename, os.Remove}

func syncPath(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// WriteFile writes data to path+".tmp", syncs it, renames it over path and
// syncs the directory: when it returns nil the new content is durable. On
// failure the tmp file is removed and path keeps its old content (after a
// failed directory sync it may hold either).
func WriteFile(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	err := fsys.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = fsys.Sync(tmp)
	}
	if err == nil {
		err = fsys.Rename(tmp, path)
	}
	if err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.Sync(filepath.Dir(path))
}
