package server

import (
	"slices"

	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/scrub"
)

// Scrubber exposes the server's integrity scrubber (harness access).
func (s *Server) Scrubber() *scrub.Scrubber { return s.scrubber }

// RunScrubPass runs one synchronous scrub pass over the container store.
func (s *Server) RunScrubPass() (*scrub.PassStats, error) { return s.scrubber.RunPass() }

// ScrubReport assembles the damage inventory the repair scheduler polls:
// scrubber lifetime counters, the set of share entries currently flagged
// damaged, and — when there is outstanding damage — the files whose
// stripes it touches, so repairs can be targeted per file. The file walk
// runs under gcMu's read side: a concurrent pass cannot rewrite a recipe
// container mid-walk and fake a lost recipe.
func (s *Server) ScrubReport() (*protocol.ScrubReport, error) {
	c := s.scrubber.Counters()
	r := &protocol.ScrubReport{
		Paused:            s.scrubber.Paused(),
		Passes:            c.Passes,
		ContainersScanned: c.ContainersScanned,
		BytesScanned:      c.BytesScanned,
		EntriesVerified:   c.EntriesVerified,
		DamagedContainers: c.DamagedContainers,
		DamagedEntries:    c.DamagedEntries,
		QuarantinedShares: c.QuarantinedShares,
		LostRecipes:       c.LostRecipes,
		RepairedShares:    s.ix.RepairedShares(),
	}
	r.InflightBytes = uint64(s.flow.inflightBytes())
	s.gcMu.RLock()
	defer s.gcMu.RUnlock()
	damaged, err := s.ix.DamagedShares()
	if err != nil {
		return nil, err
	}
	r.DamagedOutstanding = uint64(len(damaged))
	damagedSet := make(map[metadata.Fingerprint]bool, len(damaged))
	for _, e := range damaged {
		damagedSet[e.Fingerprint] = true
	}
	err = s.ix.ScanFiles(func(fe *index.FileEntry) error {
		raw, gerr := s.store.GetEntry(fe.RecipeContainer, metadata.FileKey(fe.UserID, fe.Path))
		if gerr != nil {
			r.Affected = append(r.Affected, protocol.AffectedFile{
				UserID: fe.UserID, Path: fe.Path, RecipeLost: true,
			})
			return nil
		}
		if len(damagedSet) == 0 {
			return nil
		}
		rec, perr := metadata.UnmarshalRecipe(raw)
		if perr != nil {
			// Readable but unparseable recipe bytes are as good as lost.
			r.Affected = append(r.Affected, protocol.AffectedFile{
				UserID: fe.UserID, Path: fe.Path, RecipeLost: true,
			})
			return nil
		}
		// Recipes reference deduplicated shares many times; report each
		// damaged fingerprint once per file.
		var hit []metadata.Fingerprint
		seen := make(map[metadata.Fingerprint]bool)
		for i := range rec.Entries {
			fp := rec.Entries[i].ShareFP
			if damagedSet[fp] && !seen[fp] {
				seen[fp] = true
				hit = append(hit, fp)
			}
		}
		if len(hit) > 0 {
			r.Affected = append(r.Affected, protocol.AffectedFile{
				UserID: fe.UserID, Path: fe.Path, Damaged: hit,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// handleScrubStatus sends the scrub report with the affected files cut
// down to the session user's own: the counters are the cloud's, but no
// session learns another user's file names (§3.3).
func (ss *session) handleScrubStatus() error {
	r, err := ss.srv.ScrubReport()
	if err != nil {
		return err
	}
	r.Affected = slices.DeleteFunc(r.Affected, func(af protocol.AffectedFile) bool { return af.UserID != ss.userID })
	return ss.send(protocol.MsgScrubReport, protocol.EncodeScrubReport(r))
}

// handleGetShareContainers maps fingerprints to the containers holding
// them, in query order. Ownership gates each answer exactly like
// GetShares: a fingerprint the session's user does not own answers ""
// (indistinguishable from unknown), so container placement leaks nothing
// across users. Damaged or quarantined shares also answer "" — their
// bytes are gone, so there is no container to blacklist.
func (ss *session) handleGetShareContainers(payload []byte) error {
	fps, err := protocol.DecodeFingerprints(payload)
	if err != nil {
		return badRequest("bad container query")
	}
	locs, err := ss.srv.ix.LocateShares(fps, ss.userID)
	if err != nil {
		return err
	}
	names := make([]string, len(fps))
	for i, loc := range locs {
		if loc.Owned {
			names[i] = loc.Container // "" while damaged
		}
	}
	return ss.send(protocol.MsgShareContainers, protocol.EncodeContainerNames(names))
}

func (ss *session) handleScrubControl(payload []byte) error {
	op, err := protocol.DecodeScrubControl(payload)
	if err != nil {
		return badRequest("bad scrub control")
	}
	switch op {
	case protocol.ScrubOpRunPass:
		// Synchronous: the ack means the pass (including any quarantine
		// and reclaim) finished, so a follow-up MsgScrubStatus sees its
		// results.
		if _, err := ss.srv.scrubber.RunPass(); err != nil {
			return err
		}
	case protocol.ScrubOpPause:
		ss.srv.scrubber.Pause()
	case protocol.ScrubOpResume:
		ss.srv.scrubber.Resume()
	default:
		return badRequest("unknown scrub op %d", op)
	}
	return ss.send(protocol.MsgPutOK, protocol.EncodePutOK(1))
}
