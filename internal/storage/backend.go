// Package storage defines the object-storage backend abstraction each
// CDStore server writes containers to (the per-cloud "storage backend" of
// Figure 1), with a local-filesystem implementation, an in-memory
// implementation for tests, and Corrupt, which damages stored objects; and
// the LRU a server caches what it reads back in.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned when an object does not exist.
var ErrNotFound = errors.New("storage: object not found")

// Backend is a flat object store: named blobs with whole-object put/get.
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put stores data under name, overwriting any existing object.
	Put(name string, data []byte) error
	// Get retrieves the object, or ErrNotFound.
	Get(name string) ([]byte, error)
	// Delete removes the object. Deleting an absent object is not an error.
	Delete(name string) error
	// List returns all object names in lexicographic order.
	List() ([]string, error)
}

// Memory is an in-memory Backend.
type Memory struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMemory returns an empty in-memory backend.
func NewMemory() *Memory { return &Memory{objects: make(map[string][]byte)} }

// Put implements Backend.
func (m *Memory) Put(name string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.objects[name] = append([]byte(nil), data...)
	return nil
}

// Get implements Backend.
func (m *Memory) Get(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return append([]byte(nil), data...), nil
}

// Delete implements Backend.
func (m *Memory) Delete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.objects, name)
	return nil
}

// List implements Backend.
func (m *Memory) List() ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	names := make([]string, 0, len(m.objects))
	for n := range m.objects {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// TotalBytes returns the sum of stored object sizes (test/metric helper).
func (m *Memory) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var t int64
	for _, d := range m.objects {
		t += int64(len(d))
	}
	return t
}

// LocalDir is a Backend storing each object as a file in a directory.
// Object names are escaped so arbitrary names stay within the directory.
type LocalDir struct {
	dir string
}

// NewLocalDir creates (if needed) and opens a directory-backed store.
func NewLocalDir(dir string) (*LocalDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &LocalDir{dir: dir}, nil
}

// escape maps an object name to a safe file name.
func escape(name string) string {
	r := strings.NewReplacer("/", "_S_", "\\", "_B_", "..", "_D_")
	return r.Replace(name)
}

func (l *LocalDir) path(name string) string { return filepath.Join(l.dir, escape(name)) }

// Put implements Backend with an atomic rename.
func (l *LocalDir) Put(name string, data []byte) error {
	tmp := l.path(name) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, l.path(name))
}

// Get implements Backend.
func (l *LocalDir) Get(name string) ([]byte, error) {
	data, err := os.ReadFile(l.path(name))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return data, err
}

// Delete implements Backend.
func (l *LocalDir) Delete(name string) error {
	err := os.Remove(l.path(name))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// List implements Backend. Escaped names are returned as stored; callers
// that need original names should use reversible name schemes (CDStore's
// container names contain no separators).
func (l *LocalDir) List() ([]string, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
