package storage

import (
	"errors"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTransient is the retryable failure a FaultInjector produces — the
// "request failed, try again" class of cloud error, distinct from the
// hard outage modeled by Faulty.
var ErrTransient = errors.New("storage: transient error (injected)")

// FaultConfig parameterises a FaultInjector. All probabilities are
// evaluated from a deterministic per-(seed, object, op-sequence) stream,
// so a given seed reproduces the exact same fault pattern run after run.
type FaultConfig struct {
	// Seed selects the deterministic fault stream.
	Seed int64
	// Match restricts injection to objects whose name it accepts
	// (nil = every object).
	Match func(name string) bool
	// BitFlipProb is the probability that a Get of a matched object
	// returns data with one bit flipped (silent read corruption). The
	// flipped bit position is deterministic per (seed, name, attempt).
	BitFlipProb float64
	// TruncatePutProb is the probability that a Put of a matched object
	// persists only a prefix (torn write). The cut point is deterministic
	// and always strictly inside the object.
	TruncatePutProb float64
	// TransientErrEvery fails every Nth matched operation with
	// ErrTransient (0 disables). Counted across all operation kinds.
	TransientErrEvery int
	// Latency is added to every matched operation (0 disables).
	Latency time.Duration
}

// FaultStats counts the faults a FaultInjector actually injected.
type FaultStats struct {
	BitFlips      atomic.Uint64
	Truncations   atomic.Uint64
	TransientErrs atomic.Uint64
}

// FaultInjector wraps a Backend with seeded, deterministic fault
// injection: silent bit flips on read, torn writes, transient errors,
// and added latency. Scrub and e2e tests use it in place of
// ad-hoc byte tampering.
type FaultInjector struct {
	Backend
	cfg   FaultConfig
	Stats FaultStats

	mu  sync.Mutex
	ops uint64 // matched-op counter for TransientErrEvery
	// gets counts Gets per object so repeated reads of the same name
	// draw different deterministic decisions.
	gets map[string]uint64
}

// NewFaultInjector wraps b with the given fault configuration.
func NewFaultInjector(b Backend, cfg FaultConfig) *FaultInjector {
	return &FaultInjector{Backend: b, cfg: cfg, gets: make(map[string]uint64)}
}

func (f *FaultInjector) matches(name string) bool {
	return f.cfg.Match == nil || f.cfg.Match(name)
}

// step charges latency and the transient-error schedule for one matched
// operation. It reports whether the operation should fail transiently.
func (f *FaultInjector) step() bool {
	if f.cfg.Latency > 0 {
		time.Sleep(f.cfg.Latency)
	}
	if f.cfg.TransientErrEvery <= 0 {
		return false
	}
	f.mu.Lock()
	f.ops++
	n := f.ops
	f.mu.Unlock()
	if n%uint64(f.cfg.TransientErrEvery) == 0 {
		f.Stats.TransientErrs.Add(1)
		return true
	}
	return false
}

// rng returns the deterministic random stream for one decision point.
func (f *FaultInjector) rng(name string, attempt uint64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(f.cfg.Seed ^ int64(h.Sum64()) ^ int64(attempt*0x9e3779b97f4a7c15)))
}

// Put implements Backend, optionally persisting a torn prefix.
func (f *FaultInjector) Put(name string, data []byte) error {
	if !f.matches(name) {
		return f.Backend.Put(name, data)
	}
	if f.step() {
		return ErrTransient
	}
	if f.cfg.TruncatePutProb > 0 && len(data) > 1 {
		r := f.rng(name, 0)
		if r.Float64() < f.cfg.TruncatePutProb {
			cut := 1 + r.Intn(len(data)-1)
			f.Stats.Truncations.Add(1)
			return f.Backend.Put(name, data[:cut])
		}
	}
	return f.Backend.Put(name, data)
}

// Get implements Backend, optionally flipping one bit of the result.
func (f *FaultInjector) Get(name string) ([]byte, error) {
	if !f.matches(name) {
		return f.Backend.Get(name)
	}
	if f.step() {
		return nil, ErrTransient
	}
	data, err := f.Backend.Get(name)
	if err != nil {
		return nil, err
	}
	if f.cfg.BitFlipProb > 0 && len(data) > 0 {
		f.mu.Lock()
		f.gets[name]++
		attempt := f.gets[name]
		f.mu.Unlock()
		r := f.rng(name, attempt)
		if r.Float64() < f.cfg.BitFlipProb {
			bit := r.Intn(len(data) * 8)
			data[bit/8] ^= 1 << (bit % 8)
			f.Stats.BitFlips.Add(1)
		}
	}
	return data, nil
}

// Delete implements Backend.
func (f *FaultInjector) Delete(name string) error {
	if f.matches(name) && f.step() {
		return ErrTransient
	}
	return f.Backend.Delete(name)
}

// List implements Backend.
func (f *FaultInjector) List() ([]string, error) {
	if f.step() {
		return nil, ErrTransient
	}
	return f.Backend.List()
}

// Corrupt rewrites every stored object accepted by match through
// transform, persisting the result (a one-shot "damage what is already
// on disk" pass — the durable-corruption counterpart to FaultInjector's
// on-the-fly faults). transform receives the object's current bytes and
// returns the replacement; returning nil deletes the object (container
// loss). It returns the names of the objects it changed, in order.
func Corrupt(b Backend, match func(name string) bool, transform func(name string, data []byte) []byte) ([]string, error) {
	names, err := b.List()
	if err != nil {
		return nil, err
	}
	var changed []string
	for _, name := range names {
		if match != nil && !match(name) {
			continue
		}
		data, err := b.Get(name)
		if err != nil {
			return changed, err
		}
		out := transform(name, data)
		if out == nil {
			if err := b.Delete(name); err != nil {
				return changed, err
			}
			changed = append(changed, name)
			continue
		}
		if err := b.Put(name, out); err != nil {
			return changed, err
		}
		changed = append(changed, name)
	}
	return changed, nil
}

// FlipBit returns a transform for Corrupt that XORs one bit at a
// deterministic position derived from seed and the object name —
// the classic silent-corruption model (invalidates the container CRC).
func FlipBit(seed int64) func(name string, data []byte) []byte {
	return func(name string, data []byte) []byte {
		if len(data) == 0 {
			return data
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		r := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		out := append([]byte(nil), data...)
		bit := r.Intn(len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
		return out
	}
}
