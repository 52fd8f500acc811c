package cloud

import (
	"errors"
	"sync/atomic"

	"cdstore/internal/storage"
)

// ErrUnavailable is returned by a backend that has been failed (cloud
// outage injection).
var ErrUnavailable = errors.New("cloud: backend unavailable")

// Faulty wraps a Backend with switchable unavailability — the cloud
// outage model of the fault-tolerance experiments.
type Faulty struct {
	storage.Backend
	down atomic.Bool
}

// NewFaulty wraps b.
func NewFaulty(b storage.Backend) *Faulty { return &Faulty{Backend: b} }

// Fail makes every subsequent operation return ErrUnavailable.
func (f *Faulty) Fail() { f.down.Store(true) }

// Recover restores service.
func (f *Faulty) Recover() { f.down.Store(false) }

// Down reports whether the backend is failed.
func (f *Faulty) Down() bool { return f.down.Load() }

// Put implements storage.Backend.
func (f *Faulty) Put(name string, data []byte) error {
	if f.down.Load() {
		return ErrUnavailable
	}
	return f.Backend.Put(name, data)
}

// Get implements storage.Backend.
func (f *Faulty) Get(name string) ([]byte, error) {
	if f.down.Load() {
		return nil, ErrUnavailable
	}
	return f.Backend.Get(name)
}

// Delete implements storage.Backend.
func (f *Faulty) Delete(name string) error {
	if f.down.Load() {
		return ErrUnavailable
	}
	return f.Backend.Delete(name)
}

// List implements storage.Backend.
func (f *Faulty) List() ([]string, error) {
	if f.down.Load() {
		return nil, ErrUnavailable
	}
	return f.Backend.List()
}
