package scrub

import (
	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
)

// compact is the one container-maintenance operation: it rewrites a
// persisted container c, parsed by the pass, without some of its entries
// and repoints the survivors. An entry survives when the index still maps
// its key to this container — a share entry placed here, a file entry
// naming it as its recipe container — and the key is not in drop
// (quarantine's damaged recipes, whose file entries stay as they are for
// the repair scheduler to find). The index is asked once for the whole
// container; container.Store.Rewrite then persists, repoints by
// compare-and-set (an entry re-placed since the question was asked is
// left alone) and deletes, in the order that keeps every index entry
// resolvable whichever step fails. The reclaim is added to stats; the
// name c's survivors now live under comes back ("" when none survived, c's
// own name when nothing was dropped).
//
// The caller holds the quiesce lock, which excludes uploads: a share
// appended but not yet committed is indistinguishable from garbage, so
// whatever the pass asked before taking the lock is asked again here.
func (s *Scrubber) compact(c *container.Container, drop map[metadata.Fingerprint]bool, stats *PassStats) (string, error) {
	at, err := placedIn(s.cfg.Index, c)
	if err != nil {
		return "", err
	}
	keep := make([]bool, len(at))
	dropped := 0
	for i := range at {
		if keep[i] = at[i] == c.Name && !drop[c.Entries[i].Key]; !keep[i] {
			dropped++
		}
	}
	newName, reclaimed, err := s.cfg.Store.Rewrite(c, keep, func(newName string, kept []metadata.Fingerprint) error {
		if c.Type == container.ShareContainer {
			_, err := s.cfg.Index.RepointShares(kept, c.Name, newName)
			return err
		}
		_, err := s.cfg.Index.RepointFiles(c.UserID, kept, c.Name, newName)
		return err
	})
	if err != nil || dropped == 0 {
		return newName, err
	}
	if c.Type == container.ShareContainer {
		stats.SharesDropped += dropped
	} else {
		stats.RecipesDropped += dropped
	}
	stats.BytesReclaimed += reclaimed
	stats.ContainersRewritten++
	return newName, nil
}

// placedIn asks the index, in one batched call, which container it maps
// each of c's keys to ("" for a key it does not know or has flagged
// damaged).
func placedIn(ix *index.Index, c *container.Container) ([]string, error) {
	keys := make([]metadata.Fingerprint, len(c.Entries))
	for i := range c.Entries {
		keys[i] = c.Entries[i].Key
	}
	if c.Type != container.ShareContainer {
		return ix.RecipeContainers(c.UserID, keys)
	}
	locs, err := ix.LocateShares(keys, c.UserID)
	if err != nil {
		return nil, err
	}
	at := make([]string, len(locs))
	for i := range locs {
		at[i] = locs[i].Container
	}
	return at, nil
}
