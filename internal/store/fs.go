package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// FS is the durable filesystem Backend rooted at the directory it
// names: a key is a path relative to that directory.
//
// Every Put goes through a temp file in the target directory: write,
// fsync, rename over the final name, fsync the directory — so a blob is
// either the old version or the new one, never a torn mix, and a
// rename that was acknowledged survives a crash.
type FS string

// OpenFS opens (creating if needed) a filesystem store rooted at dir,
// with a directory per record family.
func OpenFS(dir string) (Store, error) {
	for sub := range families {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return New(FS(dir)), nil
}

func (f FS) path(key string) string { return filepath.Join(string(f), filepath.FromSlash(key)) }

// Put implements Backend.
func (f FS) Put(key string, data []byte) error {
	path := f.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return writeAtomic(path, data)
}

// Get implements Backend.
func (f FS) Get(key string) ([]byte, error) {
	data, err := os.ReadFile(f.path(key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %s: %w", key, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return data, nil
}

// List implements Backend. Subdirectories and dot-files — the temp
// files a crash mid-write leaves behind — are not listed.
func (f FS) List(dir string) ([]string, error) {
	entries, err := os.ReadDir(f.path(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Delete implements Backend.
func (f FS) Delete(dir string) error {
	if err := os.RemoveAll(f.path(dir)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// writeAtomic publishes data at path via a same-directory temp file:
// fsync the contents before the rename (so the new bytes are durable
// before the name points at them) and fsync the directory after (so the
// rename itself is durable).
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		// Directory fsync is advisory on some filesystems; a failure
		// here cannot un-publish the rename, so it is not fatal.
		d.Sync()
		d.Close()
	}
	return nil
}
