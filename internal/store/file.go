package store

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// FileStore keeps one file per key under a root directory. Keys map to
// relative paths ("ab/cd" nests; flat keys such as the runner's 64-hex
// trial keys all land in the root). Writes are temp-file-plus-rename
// atomic: a reader never observes a torn value, and a crash mid-Put leaves
// only a .put-* temp file that the next NewFileStore on the directory
// removes.
type FileStore struct {
	dir string
}

// staleTempAge is how old an orphaned temp file (.put-* of a FileStore,
// .wal-* of a WAL compaction) must be before opening the store deletes
// it. One hour is far beyond any plausible in-flight write, so a
// concurrent writer's live temp file is never touched.
const staleTempAge = time.Hour

// NewFileStore roots a store at dir, creating it if needed, and removes
// .put-* temp files older than staleTempAge that crashed Puts left
// behind, so long-lived store directories do not accumulate them.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sweepStaleTemps(dir, ".put-", true, time.Now().Add(-staleTempAge))
	return &FileStore{dir: dir}, nil
}

// sweepStaleTemps removes the files named prefix* that crashed writers
// left in dir, once last modified before cutoff. With subtree set it
// descends into subdirectories too: FileStore.Put writes its temp beside
// the key's file, nested keys included. The WAL's temps sit only beside
// the log, whose directory may hold unrelated data below it. Errors are
// ignored: cleanup is best-effort.
func sweepStaleTemps(dir, prefix string, subtree bool, cutoff time.Time) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if !subtree && path != dir {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasPrefix(d.Name(), prefix) {
			return nil
		}
		if info, err := d.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(path)
		}
		return nil
	})
}

// path maps a key to its file. Keys are clean relative paths by the Blob
// contract; Clean guards against escaping the root regardless.
func (s *FileStore) path(key string) string {
	return filepath.Join(s.dir, filepath.Clean("/"+key))
}

// Get reads the value for key, or ErrNotFound.
func (s *FileStore) Get(_ context.Context, key string) ([]byte, error) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	return data, nil
}

// Put writes val under key atomically (temp file, then rename).
func (s *FileStore) Put(_ context.Context, key string, val []byte) error {
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(val)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(name, p); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
