package store

import (
	"bytes"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"
)

// Mem is the in-memory Backend. Blobs are grouped by directory, so List
// and Delete touch one directory's entries rather than every key in the
// store; Put and Get copy, so callers never share bytes with it. The
// zero Mem is empty and ready to use.
type Mem struct {
	mu   sync.Mutex
	dirs map[string]map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() Store { return New(new(Mem)) }

// Put implements Backend.
func (m *Mem) Put(key string, data []byte) error {
	dir, name := path.Dir(key), path.Base(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs == nil {
		m.dirs = make(map[string]map[string][]byte)
	}
	if m.dirs[dir] == nil {
		m.dirs[dir] = make(map[string][]byte)
	}
	m.dirs[dir][name] = bytes.Clone(data)
	return nil
}

// Get implements Backend.
func (m *Mem) Get(key string) ([]byte, error) {
	m.mu.Lock()
	data, ok := m.dirs[path.Dir(key)][path.Base(key)]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("store: %s: %w", key, ErrNotFound)
	}
	return bytes.Clone(data), nil
}

// List implements Backend. Names are sorted to match the lexical order
// of FS's directory listing, not Go's randomized map order.
func (m *Mem) List(dir string) ([]string, error) {
	m.mu.Lock()
	var names []string
	for name := range m.dirs[dir] {
		if !strings.HasPrefix(name, ".") {
			names = append(names, name)
		}
	}
	m.mu.Unlock()
	sort.Strings(names)
	return names, nil
}

// Delete implements Backend.
func (m *Mem) Delete(dir string) error {
	m.mu.Lock()
	delete(m.dirs, dir)
	m.mu.Unlock()
	return nil
}
