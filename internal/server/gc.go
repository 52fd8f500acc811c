package server

import (
	"cdstore/internal/container"
	"cdstore/internal/scrub"
)

// GCStats reports one garbage collection pass.
type GCStats struct {
	// SharesDropped counts unreferenced shares physically removed.
	SharesDropped int
	// RecipesDropped counts orphaned file recipes removed.
	RecipesDropped int
	// BytesReclaimed is the container space freed on the backend.
	BytesReclaimed int64
	// ContainersRewritten counts containers that were compacted.
	ContainersRewritten int
}

// GC reclaims the space of expired backups (§4.7: "garbage collection can
// reclaim space of expired backups"; implemented here as the offline mark
// and sweep the paper leaves as future work). The mark is the index
// itself: a share is live while any user references it or has uploaded it
// pending a recipe (count == 0 markers are kept: a crashed backup may
// still complete), a recipe while its file entry names the container it
// sits in. The sweep is scrub.Compact over every persisted container,
// shares then recipes — the same operation a scrub quarantine runs —
// which asks the index about one container's keys at a time, so no
// whole-index live set is built.
//
// GC must not run concurrently with uploads: it takes the write side of
// gcMu, stopping the world while sessions' request handlers hold the
// read side. With no uploads in flight the index holds no reservations,
// so every share a container holds is either committed or garbage.
func (s *Server) GC() (*GCStats, error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	if err := s.store.Flush(); err != nil {
		return nil, err
	}
	stats := &GCStats{}
	for _, typ := range []container.Type{container.ShareContainer, container.RecipeContainer} {
		names, err := s.store.ListContainers(typ)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			dropped, reclaimed, err := scrub.Compact(s.ix, s.store, name, nil)
			if err != nil {
				return nil, err
			}
			if reclaimed == 0 {
				continue
			}
			if typ == container.ShareContainer {
				stats.SharesDropped += dropped
			} else {
				stats.RecipesDropped += dropped
			}
			stats.BytesReclaimed += reclaimed
			stats.ContainersRewritten++
		}
	}
	// Compact the index itself after the churn.
	if err := s.ix.Compact(); err != nil {
		return nil, err
	}
	return stats, nil
}
