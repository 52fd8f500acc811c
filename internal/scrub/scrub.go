// Package scrub implements a cloud's one maintenance pass and the
// server-driven integrity half of CDStore's durability story. A pass
// re-verifies every persisted container against its CRC and its entries
// against their §3.3 fingerprints at a bounded I/O budget, quarantines
// damage (drop the bad bytes, keep the good ones, flag the affected share
// index entries), and reclaims what the index no longer places — the
// shares and recipes of deleted or replaced backups (§4.7's garbage
// collection) — with the same container rewrite. A repair scheduler
// re-disperses the damaged stripes through the client's streaming engine
// with zero end-user involvement.
//
// Detection no longer depends on a user asking for their data back
// (the §3.2 read-triggered subset retry); the model is cubeFS's
// Scheduler-style background inspection and deletion tasks.
package scrub

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/storage"
)

// Config configures a Scrubber.
type Config struct {
	// Backend is the cloud's container store, read raw (bypassing the
	// container cache, so cached parses cannot mask on-disk corruption).
	Backend storage.Backend
	// Index is the cloud's dedup index: damaged entries are flagged there
	// so repair uploads can re-place the bytes.
	Index *index.Index
	// Store is the container store, used for rewrites (garbage and damaged
	// entries are dropped, live ones preserved) and for distinguishing a
	// lost container from one still buffered in memory.
	Store *container.Store
	// BudgetBytesPerSec bounds the scan read rate (token bucket;
	// 0 = unlimited).
	BudgetBytesPerSec int64
	// CheckpointPath, when set, persists the scan cursor after every
	// container so a restarted scrubber resumes mid-pass instead of
	// starting over.
	CheckpointPath string
	// Interval is the idle time between background passes (Start loop).
	Interval time.Duration
	// QuiesceLock, when set, is held exclusively while one container is
	// rewritten or dropped and while confirming missing containers — the
	// server passes the write side of the lock its upload handlers hold
	// for reading, so a rewrite never interleaves with an upload. Scanning,
	// and asking the index whether a container holds garbage, take no lock.
	QuiesceLock sync.Locker
}

// Verdict classifies one scanned container.
type Verdict int

// Container verdicts.
const (
	// VerdictClean: CRC and every entry fingerprint verified.
	VerdictClean Verdict = iota
	// VerdictCorrupt: the container failed structural verification
	// (CRC mismatch, truncation, bad framing) — every entry is suspect.
	VerdictCorrupt
	// VerdictEntryDamage: the container parsed but one or more entries
	// failed re-fingerprinting (silent data corruption inside a valid
	// frame).
	VerdictEntryDamage
	// VerdictMissing: the index references a container the backend no
	// longer has (container loss).
	VerdictMissing
	// VerdictReadError: the backend failed the read (after the transient
	// window a real deployment would retry over).
	VerdictReadError
)

func (v Verdict) String() string {
	switch v {
	case VerdictClean:
		return "clean"
	case VerdictCorrupt:
		return "corrupt"
	case VerdictEntryDamage:
		return "entry-damage"
	case VerdictMissing:
		return "missing"
	case VerdictReadError:
		return "read-error"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// ContainerDamage is one damaged container's report.
type ContainerDamage struct {
	Container string
	Type      container.Type
	Verdict   Verdict
	// DamagedShares are the share fingerprints whose bytes failed
	// verification (flagged in the index by quarantine).
	DamagedShares []metadata.Fingerprint
	// LostRecipes counts recipe entries that failed verification; the
	// affected files are recovered by the scheduler via the file index.
	LostRecipes int
	// Detail carries the structural error for corrupt/read-error verdicts.
	Detail string
}

// PassStats reports one completed scrub pass.
type PassStats struct {
	Containers int
	Bytes      int64
	Entries    int
	Damaged    []ContainerDamage
	Duration   time.Duration
	// Resumed marks a pass that picked up from a persisted cursor.
	Resumed bool
	// SharesDropped and RecipesDropped count the entries the pass's
	// container rewrites removed — garbage and quarantined damage alike —
	// BytesReclaimed their bytes and ContainersRewritten the rewrites.
	SharesDropped, RecipesDropped int
	BytesReclaimed                int64
	ContainersRewritten           int
}

// Counters is a snapshot of the scrubber's lifetime counters (surfaced
// through Server stats and the MsgScrubStatus protocol report).
type Counters struct {
	Passes            uint64
	ContainersScanned uint64
	BytesScanned      uint64
	EntriesVerified   uint64
	DamagedContainers uint64
	DamagedEntries    uint64
	QuarantinedShares uint64
	LostRecipes       uint64
}

// Scrubber walks a cloud's container store verifying integrity and
// reclaiming what the index no longer places.
// All methods are safe for concurrent use; at most one pass runs at a
// time.
type Scrubber struct {
	cfg    Config
	bucket *tokenBucket

	runMu sync.Mutex // serializes passes

	mu     sync.Mutex
	cond   *sync.Cond
	paused bool
	closed bool
	done   chan struct{} // closed by Close; wakes the background loop

	passes            atomic.Uint64
	containersScanned atomic.Uint64
	bytesScanned      atomic.Uint64
	entriesVerified   atomic.Uint64
	damagedContainers atomic.Uint64
	damagedEntries    atomic.Uint64
	quarantined       atomic.Uint64
	lostRecipes       atomic.Uint64

	loopWG sync.WaitGroup
}

// New builds a Scrubber. Call Start for the background loop, or RunPass
// for a synchronous pass.
func New(cfg Config) *Scrubber {
	if cfg.QuiesceLock == nil {
		cfg.QuiesceLock = new(sync.Mutex) // nothing to exclude but the pass itself
	}
	s := &Scrubber{
		cfg:    cfg,
		bucket: newTokenBucket(cfg.BudgetBytesPerSec),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Start launches the background loop: one pass, then Interval of idle,
// repeated until Close. With Interval <= 0 Start is a no-op (on-demand
// passes only).
func (s *Scrubber) Start() {
	if s.cfg.Interval <= 0 {
		return
	}
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		for !s.isClosed() {
			// Background damage detection must not kill the server: a
			// failed pass is retried after the idle interval.
			s.RunPass()
			timer := time.NewTimer(s.cfg.Interval)
			select {
			case <-timer.C:
			case <-s.done:
				timer.Stop()
				return
			}
		}
	}()
}

// Close stops the background loop and wakes any paused pass so it can
// exit. In-flight passes finish their current container and return.
// Idempotent.
func (s *Scrubber) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.loopWG.Wait()
}

// Pause suspends scanning at the next container boundary; the budget
// does not accumulate while paused (burst is capped at one second).
func (s *Scrubber) Pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// Resume continues a paused scan.
func (s *Scrubber) Resume() {
	s.mu.Lock()
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Paused reports whether the scrubber is paused.
func (s *Scrubber) Paused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

func (s *Scrubber) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

var errClosed = errors.New("scrub: scrubber closed")

// gate blocks while paused; it returns errClosed once Close is called.
func (s *Scrubber) gate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.paused && !s.closed {
		s.cond.Wait()
	}
	if s.closed {
		return errClosed
	}
	return nil
}

// Counters snapshots the lifetime counters.
func (s *Scrubber) Counters() Counters {
	return Counters{
		Passes:            s.passes.Load(),
		ContainersScanned: s.containersScanned.Load(),
		BytesScanned:      s.bytesScanned.Load(),
		EntriesVerified:   s.entriesVerified.Load(),
		DamagedContainers: s.damagedContainers.Load(),
		DamagedEntries:    s.damagedEntries.Load(),
		QuarantinedShares: s.quarantined.Load(),
		LostRecipes:       s.lostRecipes.Load(),
	}
}

// RunPass scans every persisted container once, resuming from a
// checkpointed cursor if one exists, quarantines what it finds damaged,
// reclaims what the index no longer places, and returns the pass report.
// Containers still open for appends are left to the pass after they are
// sealed. Only one pass runs at a time; a concurrent call waits its turn.
func (s *Scrubber) RunPass() (*PassStats, error) {
	s.runMu.Lock()
	defer s.runMu.Unlock()
	start := time.Now()
	stats := &PassStats{}

	names, err := s.cfg.Backend.List()
	if err != nil {
		return nil, fmt.Errorf("scrub: listing containers: %w", err)
	}
	sort.Strings(names)

	cursor := s.loadCursor()
	stats.Resumed = cursor != ""

	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if !strings.HasPrefix(name, "share-") && !strings.HasPrefix(name, "recipe-") {
			continue
		}
		seen[name] = true
		if name <= cursor {
			continue // verified before the restart; next pass re-covers it
		}
		if err := s.gate(); err != nil {
			return stats, err
		}
		c, dmg, bytes := s.verifyContainer(name)
		entries := 0
		if c != nil {
			entries = len(c.Entries)
		}
		stats.Containers++
		stats.Bytes += bytes
		stats.Entries += entries
		s.containersScanned.Add(1)
		s.bytesScanned.Add(uint64(bytes))
		s.entriesVerified.Add(uint64(entries))
		if dmg != nil {
			s.recordDamage(dmg)
		}
		rewritten, err := s.maintain(c, dmg, stats)
		if err != nil {
			return stats, fmt.Errorf("scrub: maintaining %s: %w", name, err)
		}
		seen[rewritten] = true // the survivors' new home is not missing
		if dmg != nil {
			stats.Damaged = append(stats.Damaged, *dmg)
		}
		s.saveCursor(name)
	}

	// Lost-container sweep: index entries referencing containers the
	// backend no longer lists (and that are not open write buffers).
	missing, err := s.sweepMissing(seen)
	if err != nil {
		return stats, err
	}
	stats.Damaged = append(stats.Damaged, missing...)

	s.clearCursor()
	s.passes.Add(1)
	stats.Duration = time.Since(start)
	return stats, nil
}

// verifyContainer reads one container raw from the backend, charges the
// budget, and verifies CRC + per-entry fingerprints. It returns the parsed
// container (nil when it did not parse), a damage report (nil when clean)
// and the bytes read; nil, nil, 0 covers a container gone since the
// listing (not an integrity event).
func (s *Scrubber) verifyContainer(name string) (*container.Container, *ContainerDamage, int64) {
	raw, err := s.cfg.Backend.Get(name)
	if errors.Is(err, storage.ErrNotFound) {
		return nil, nil, 0
	}
	typ := container.ShareContainer
	if strings.HasPrefix(name, "recipe-") {
		typ = container.RecipeContainer
	}
	if err != nil {
		return nil, &ContainerDamage{Container: name, Type: typ, Verdict: VerdictReadError, Detail: err.Error()}, 0
	}
	s.bucket.take(int64(len(raw)))
	c, err := container.Unmarshal(name, raw)
	if err != nil {
		return nil, &ContainerDamage{Container: name, Type: typ, Verdict: VerdictCorrupt, Detail: err.Error()}, int64(len(raw))
	}
	dmg := &ContainerDamage{Container: name, Type: c.Type, Verdict: VerdictEntryDamage}
	for i := range c.Entries {
		e := &c.Entries[i]
		switch c.Type {
		case container.ShareContainer:
			// §3.3 re-fingerprinting: the entry key IS the share's
			// server-computed fingerprint, so a hash mismatch is silent
			// corruption of the share bytes.
			if metadata.FingerprintOf(e.Data) != e.Key {
				dmg.DamagedShares = append(dmg.DamagedShares, e.Key)
			}
		case container.RecipeContainer:
			// Recipes are keyed by file key (not a content hash); verify
			// they still parse. Random corruption inside a valid CRC frame
			// cannot happen on honest backends, but scrub does not trust
			// the backend.
			if _, rerr := metadata.UnmarshalRecipe(e.Data); rerr != nil {
				dmg.DamagedShares = append(dmg.DamagedShares, e.Key)
				dmg.LostRecipes++
			}
		}
	}
	if len(dmg.DamagedShares) == 0 {
		dmg = nil
	}
	return c, dmg, int64(len(raw))
}

func (s *Scrubber) recordDamage(dmg *ContainerDamage) {
	s.damagedContainers.Add(1)
	s.damagedEntries.Add(uint64(len(dmg.DamagedShares)))
	s.lostRecipes.Add(uint64(dmg.LostRecipes))
}

// maintain acts on one verified container, under the quiesce lock and
// only when there is something to do. A container lost whole (c is nil:
// corrupt or unreadable) is dropped. A parsed one is compacted when it
// holds damage or anything else the index no longer places in it:
// damaged shares are flagged first (one deduplicated into a different,
// healthy container since is spared), so they no longer map here and go
// with the garbage; damaged recipes are dropped by name, their file
// entries left pointing at the old container for the scheduler to find.
// It returns the name c's live entries are held under afterwards.
func (s *Scrubber) maintain(c *container.Container, dmg *ContainerDamage, stats *PassStats) (string, error) {
	if c == nil && dmg == nil {
		return "", nil
	}
	if dmg == nil {
		// Asked without the lock: a yes is only a reason to take it and
		// let compact ask again.
		at, err := placedIn(s.cfg.Index, c)
		if err != nil || !slices.ContainsFunc(at, func(name string) bool { return name != c.Name }) {
			return c.Name, err
		}
	}
	s.cfg.QuiesceLock.Lock()
	defer s.cfg.QuiesceLock.Unlock()
	if c == nil {
		return "", s.dropLost(dmg)
	}
	var drop map[metadata.Fingerprint]bool
	switch {
	case dmg == nil:
	case c.Type == container.ShareContainer:
		marked, err := s.cfg.Index.MarkSharesDamaged(dmg.DamagedShares, c.Name)
		if err != nil {
			return "", err
		}
		s.quarantined.Add(uint64(marked))
	default:
		drop = make(map[metadata.Fingerprint]bool, len(dmg.DamagedShares))
		for _, fp := range dmg.DamagedShares {
			drop[fp] = true
		}
	}
	return s.compact(c, drop, stats)
}

// dropLost deletes a container lost whole: every index entry still
// pointing at it is damaged. (A missing container never gets here:
// sweepMissing marks its entries itself.) Caller holds the quiesce lock.
func (s *Scrubber) dropLost(dmg *ContainerDamage) error {
	if dmg.Type == container.ShareContainer {
		by, err := s.sharesPlacedIn(func(name string) bool { return name == dmg.Container })
		if err != nil {
			return err
		}
		fps := by[dmg.Container]
		marked, err := s.cfg.Index.MarkSharesDamaged(fps, dmg.Container)
		if err != nil {
			return err
		}
		s.quarantined.Add(uint64(marked))
		dmg.DamagedShares = fps
	} else {
		// Recipe loss: count the files whose recipe container this
		// was; the scheduler finds them through the file index.
		n := 0
		err := s.cfg.Index.ScanFiles(func(fe *index.FileEntry) error {
			if fe.RecipeContainer == dmg.Container {
				n++
			}
			return nil
		})
		if err != nil {
			return err
		}
		dmg.LostRecipes += n
		s.lostRecipes.Add(uint64(n))
	}
	return s.cfg.Store.Delete(dmg.Container)
}

// sharesPlacedIn walks the index once and groups, by container, the
// fingerprints of the healthy entries placed in a container want accepts.
func (s *Scrubber) sharesPlacedIn(want func(name string) bool) (map[string][]metadata.Fingerprint, error) {
	by := make(map[string][]metadata.Fingerprint)
	err := s.cfg.Index.ScanShares(func(e *index.ShareEntry) error {
		if !e.Damaged && e.Container != "" && want(e.Container) {
			by[e.Container] = append(by[e.Container], e.Fingerprint)
		}
		return nil
	})
	return by, err
}

// sweepMissing detects container loss: committed index entries whose
// container the pass's listing did not include and that the store cannot
// produce (not an open buffer, not cached, not on the backend). It runs
// under the quiesce lock, and marking is conditional on the entry still
// pointing at the lost container, so a share re-placed since the index
// walk is left alone.
func (s *Scrubber) sweepMissing(seen map[string]bool) ([]ContainerDamage, error) {
	byContainer, err := s.sharesPlacedIn(func(name string) bool { return !seen[name] })
	if err != nil || len(byContainer) == 0 {
		return nil, err
	}
	s.cfg.QuiesceLock.Lock()
	defer s.cfg.QuiesceLock.Unlock()
	var out []ContainerDamage
	for name, fps := range byContainer {
		if _, err := s.cfg.Store.GetContainer(name); err == nil {
			continue // flushed (or still buffered) after the listing — alive
		}
		marked, err := s.cfg.Index.MarkSharesDamaged(fps, name)
		if err != nil {
			return out, err
		}
		if marked == 0 {
			continue
		}
		dmg := ContainerDamage{
			Container:     name,
			Type:          container.ShareContainer,
			Verdict:       VerdictMissing,
			DamagedShares: fps,
		}
		s.recordDamage(&dmg)
		s.quarantined.Add(uint64(marked))
		out = append(out, dmg)
	}
	return out, nil
}

// --- cursor checkpointing ---

const cursorHeader = "cdstore-scrub-cursor-v1\n"

// loadCursor reads the persisted mid-pass cursor ("" when none).
func (s *Scrubber) loadCursor() string {
	if s.cfg.CheckpointPath == "" {
		return ""
	}
	raw, err := os.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		return ""
	}
	rest, ok := strings.CutPrefix(string(raw), cursorHeader)
	if !ok {
		return ""
	}
	return strings.TrimSuffix(rest, "\n")
}

// saveCursor checkpoints the last verified container name (atomic
// tmp+rename so a crash never leaves a torn cursor).
func (s *Scrubber) saveCursor(name string) {
	if s.cfg.CheckpointPath == "" {
		return
	}
	tmp := s.cfg.CheckpointPath + ".tmp"
	if err := os.WriteFile(tmp, []byte(cursorHeader+name+"\n"), 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, s.cfg.CheckpointPath)
}

func (s *Scrubber) clearCursor() {
	if s.cfg.CheckpointPath == "" {
		return
	}
	_ = os.Remove(s.cfg.CheckpointPath)
}
