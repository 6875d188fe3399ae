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

// staleTempAge is how old an orphaned .put-* temp file must be before
// NewFileStore deletes it. One hour is far beyond any plausible in-flight
// Put, so a concurrent writer's live temp file is never touched.
const staleTempAge = time.Hour

// NewFileStore roots a store at dir, creating it if needed, and removes
// .put-* temp files older than staleTempAge that crashed Puts left
// behind, so long-lived store directories do not accumulate them.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sweepStaleTemps(dir, time.Now().Add(-staleTempAge))
	return &FileStore{dir: dir}, nil
}

// sweepStaleTemps removes .put-* files under dir last modified before
// cutoff. Errors are ignored: cleanup is best-effort.
func sweepStaleTemps(dir string, cutoff time.Time) {
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), ".put-") {
			return nil
		}
		if info, err := d.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(path)
		}
		return nil
	})
}

// Dir reports the root directory.
func (s *FileStore) Dir() string { return s.dir }

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

// Exists reports whether key has a value.
func (s *FileStore) Exists(_ context.Context, key string) (bool, error) {
	_, err := os.Stat(s.path(key))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

// Del removes key; absent keys are not an error.
func (s *FileStore) Del(_ context.Context, key string) error {
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Iter walks the tree under the root and reports every key (relative
// slash-separated path) with the prefix. In-flight .put-* temp files are
// skipped — they are not values yet.
func (s *FileStore) Iter(ctx context.Context, prefix string, fn func(key string) error) error {
	return filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // concurrently deleted; not a value anymore
			}
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".put-") {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		rel, err := filepath.Rel(s.dir, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if !strings.HasPrefix(key, prefix) {
			return nil
		}
		return fn(key)
	})
}
