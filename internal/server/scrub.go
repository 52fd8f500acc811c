package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/storage"
)

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
	// affected files are recovered by a heal round via the file index.
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

var errClosed = errors.New("server: closed")

// scrubLoop is the background maintenance loop: one pass, then
// ScrubInterval of idle, repeated until Close. A failed pass is retried
// after the idle interval: background damage detection must not kill
// the server.
func (s *Server) scrubLoop() {
	defer s.wg.Done()
	for {
		s.RunScrubPass()
		timer := time.NewTimer(s.cfg.ScrubInterval)
		select {
		case <-timer.C:
		case <-s.done:
			timer.Stop()
			return
		}
	}
}

// RunScrubPass scans every persisted container once, resuming from a
// checkpointed cursor if one exists, quarantines what it finds damaged,
// reclaims what the index no longer places, and returns the pass report.
// Containers still open for appends are left to the pass after they are
// sealed. Only one pass runs at a time; a concurrent call waits its turn.
// Close interrupts a pass between two containers.
func (s *Server) RunScrubPass() (*PassStats, error) {
	s.scrubMu.Lock()
	defer s.scrubMu.Unlock()
	if s.isClosed() {
		return nil, errClosed
	}
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
		if s.isClosed() {
			return stats, errClosed
		}
		c, dmg, bytes, err := s.verifyContainer(name)
		if err != nil {
			return stats, fmt.Errorf("scrub: %s: %w", name, err)
		}
		entries := 0
		if c != nil {
			entries = len(c.Entries)
		}
		stats.Containers++
		stats.Bytes += bytes
		stats.Entries += entries
		s.stats.containersScanned.Add(1)
		s.stats.bytesScanned.Add(uint64(bytes))
		s.stats.entriesVerified.Add(uint64(entries))
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
	s.stats.scrubPasses.Add(1)
	stats.Duration = time.Since(start)
	return stats, nil
}

// verifyContainer reads one container raw from the backend (bypassing
// the container cache, so cached parses cannot mask on-disk corruption),
// charges the scrub budget, and verifies CRC + per-entry fingerprints.
// It returns the parsed container (nil when it did not parse), a damage
// report (nil when clean) and the bytes read; nil, nil, 0 covers a
// container gone since the listing (not an integrity event). A recipe
// container holding a recipe of format 1 is not damage but a store this
// server refuses, as it refuses an old index layout: the error says so,
// and the pass stops before it counts or quarantines anything there.
func (s *Server) verifyContainer(name string) (*container.Container, *ContainerDamage, int64, error) {
	raw, err := s.cfg.Backend.Get(name)
	if errors.Is(err, storage.ErrNotFound) {
		return nil, nil, 0, nil
	}
	typ := container.ShareContainer
	if strings.HasPrefix(name, "recipe-") {
		typ = container.RecipeContainer
	}
	if err != nil {
		return nil, &ContainerDamage{Container: name, Type: typ, Verdict: VerdictReadError, Detail: err.Error()}, 0, nil
	}
	s.scrubBudget.WaitN(len(raw))
	c, err := container.Unmarshal(name, raw)
	if err != nil {
		return nil, &ContainerDamage{Container: name, Type: typ, Verdict: VerdictCorrupt, Detail: err.Error()}, int64(len(raw)), nil
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
			_, rerr := metadata.UnmarshalRecipe(e.Data)
			if errors.Is(rerr, metadata.ErrOldFormat) {
				return nil, nil, int64(len(raw)), rerr
			}
			if rerr != nil {
				dmg.DamagedShares = append(dmg.DamagedShares, e.Key)
				dmg.LostRecipes++
			}
		}
	}
	if len(dmg.DamagedShares) == 0 {
		dmg = nil
	}
	return c, dmg, int64(len(raw)), nil
}

func (s *Server) recordDamage(dmg *ContainerDamage) {
	s.stats.damagedContainers.Add(1)
	s.stats.damagedEntries.Add(uint64(len(dmg.DamagedShares)))
	s.stats.lostRecipes.Add(uint64(dmg.LostRecipes))
}

// maintain acts on one verified container, under gcMu's write side and
// only when there is something to do. A container lost whole (c is nil:
// corrupt or unreadable) is dropped. A parsed one is compacted when it
// holds damage or anything else the index no longer places in it:
// damaged shares are flagged first (one deduplicated into a different,
// healthy container since is spared), so they no longer map here and go
// with the garbage; damaged recipes are dropped by name, their file
// entries left pointing at the old container for a heal round to find.
// It returns the name c's live entries are held under afterwards.
func (s *Server) maintain(c *container.Container, dmg *ContainerDamage, stats *PassStats) (string, error) {
	if c == nil && dmg == nil {
		return "", nil
	}
	if dmg == nil {
		// Asked without the lock: a yes is only a reason to take it and
		// let compact ask again.
		at, err := placedIn(s.ix, c)
		if err != nil || !slices.ContainsFunc(at, func(name string) bool { return name != c.Name }) {
			return c.Name, err
		}
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if c == nil {
		return "", s.dropLost(dmg)
	}
	var drop map[metadata.Fingerprint]bool
	switch {
	case dmg == nil:
	case c.Type == container.ShareContainer:
		marked, err := s.ix.MarkSharesDamaged(dmg.DamagedShares, c.Name)
		if err != nil {
			return "", err
		}
		s.stats.quarantinedShares.Add(uint64(marked))
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
// sweepMissing marks its entries itself.) Caller holds gcMu.
func (s *Server) dropLost(dmg *ContainerDamage) error {
	if dmg.Type == container.ShareContainer {
		by, err := s.sharesPlacedIn(func(name string) bool { return name == dmg.Container })
		if err != nil {
			return err
		}
		fps := by[dmg.Container]
		marked, err := s.ix.MarkSharesDamaged(fps, dmg.Container)
		if err != nil {
			return err
		}
		s.stats.quarantinedShares.Add(uint64(marked))
		dmg.DamagedShares = fps
	} else {
		// Recipe loss: count the files whose recipe container this
		// was; a heal round finds them through the file index.
		n := 0
		err := s.ix.ScanFiles(func(fe *index.FileEntry) error {
			if fe.RecipeContainer == dmg.Container {
				n++
			}
			return nil
		})
		if err != nil {
			return err
		}
		dmg.LostRecipes += n
		s.stats.lostRecipes.Add(uint64(n))
	}
	return s.store.Delete(dmg.Container)
}

// sharesPlacedIn walks the index once and groups, by container, the
// fingerprints of the healthy entries placed in a container want accepts.
func (s *Server) sharesPlacedIn(want func(name string) bool) (map[string][]metadata.Fingerprint, error) {
	by := make(map[string][]metadata.Fingerprint)
	err := s.ix.ScanShares(func(e *index.ShareEntry) error {
		if !e.Damaged && e.Container != "" && want(e.Container) {
			by[e.Container] = append(by[e.Container], e.Fingerprint)
		}
		return nil
	})
	return by, err
}

// sweepMissing detects container loss: committed index entries whose
// container the pass's listing did not include and that the store cannot
// produce from an open buffer or the backend (the read cache does not
// count: it still holds what was lost behind it). It runs under gcMu's
// write side, and marking is conditional on the entry still pointing at
// the lost container, so a share re-placed since the index walk is left
// alone.
func (s *Server) sweepMissing(seen map[string]bool) ([]ContainerDamage, error) {
	byContainer, err := s.sharesPlacedIn(func(name string) bool { return !seen[name] })
	if err != nil || len(byContainer) == 0 {
		return nil, err
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	var out []ContainerDamage
	for name, fps := range byContainer {
		if _, err := s.store.GetContainer(name); err == nil {
			continue // flushed (or still buffered) after the listing — alive
		}
		marked, err := s.ix.MarkSharesDamaged(fps, name)
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
		s.stats.quarantinedShares.Add(uint64(marked))
		out = append(out, dmg)
	}
	return out, nil
}

// --- cursor checkpointing ---

// The scan cursor is persisted after every container, beside the index,
// so a restarted server resumes a pass mid-store instead of starting over.
const (
	cursorFile   = "scrub.cursor"
	cursorHeader = "cdstore-scrub-cursor-v1\n"
)

func (s *Server) cursorPath() string { return filepath.Join(s.cfg.IndexDir, cursorFile) }

// loadCursor reads the persisted mid-pass cursor ("" when none).
func (s *Server) loadCursor() string {
	raw, err := os.ReadFile(s.cursorPath())
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
func (s *Server) saveCursor(name string) {
	tmp := s.cursorPath() + ".tmp"
	if err := os.WriteFile(tmp, []byte(cursorHeader+name+"\n"), 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, s.cursorPath())
}

func (s *Server) clearCursor() { _ = os.Remove(s.cursorPath()) }
