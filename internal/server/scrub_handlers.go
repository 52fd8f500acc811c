package server

import (
	"errors"
	"fmt"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
)

// ScrubReport assembles the damage inventory a heal round polls for one
// user: the user's files whose recipe is lost or whose stripes touch a
// damaged share, and the flow limiter's in-flight bytes the round's idle
// gate reads. Only the user's own file entries and recipes are read, so
// no session learns another user's file names or holdings (§3.3) and a
// status poll costs what the asker owns; the cloud's counters are Stats.
// The file walk runs under gcMu's read side: a concurrent pass cannot
// rewrite a recipe container mid-walk and fake a lost recipe.
func (s *Server) ScrubReport(userID uint64) (*protocol.ScrubReport, error) {
	r := &protocol.ScrubReport{InflightBytes: uint64(s.flow.inflightBytes())}
	s.gcMu.RLock()
	defer s.gcMu.RUnlock()
	damaged, err := s.ix.DamagedShares()
	if err != nil {
		return nil, err
	}
	damagedSet := make(map[metadata.Fingerprint]bool, len(damaged))
	for _, e := range damaged {
		damagedSet[e.Fingerprint] = true
	}
	files, err := s.ix.ListFiles(userID)
	if err != nil {
		return nil, err
	}
	for _, fe := range files {
		raw, gerr := s.store.GetEntry(fe.RecipeContainer, metadata.FileKey(fe.UserID, fe.Path))
		if gerr != nil {
			r.Affected = append(r.Affected, protocol.AffectedFile{
				Path: fe.Path, RecipeLost: true,
			})
			continue
		}
		if len(damagedSet) == 0 {
			continue
		}
		rec, perr := metadata.UnmarshalRecipe(raw)
		if errors.Is(perr, metadata.ErrOldFormat) {
			return nil, fmt.Errorf("recipe of %q: %w", fe.Path, perr)
		}
		if perr != nil {
			// Readable but unparseable recipe bytes are as good as lost.
			r.Affected = append(r.Affected, protocol.AffectedFile{
				Path: fe.Path, RecipeLost: true,
			})
			continue
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
				Path: fe.Path, Damaged: hit,
			})
		}
	}
	return r, nil
}

// handleScrubStatus sends the session user's scrub report. A report that
// fails, on a refused store or a failing backend, is answered in-band
// (inBand), as is a pass that fails in handleScrubControl.
func (ss *session) handleScrubStatus() error {
	r, err := ss.srv.ScrubReport(ss.userID)
	if err != nil {
		return inBand(err)
	}
	return ss.send(protocol.MsgScrubReport, protocol.EncodeScrubReport(r))
}

// handleScrubControl runs one pass. It is synchronous: the ack means the
// pass (including any quarantine and reclaim) finished, so a follow-up
// MsgScrubStatus sees its results.
func (ss *session) handleScrubControl(payload []byte) error {
	if len(payload) != 0 {
		return badRequest("bad scrub control")
	}
	if _, err := ss.srv.RunScrubPass(); err != nil {
		return inBand(err)
	}
	return ss.send(protocol.MsgPutOK, nil)
}
