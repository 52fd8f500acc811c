package scrub

import (
	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
)

// Compact is the one container-maintenance operation: a GC sweep and a
// scrub quarantine both rewrite a persisted container without some of
// its entries and repoint the survivors. An entry survives when the
// index still maps its key to this container — a share entry placed
// here, a file entry naming it as its recipe container — and the key is
// not in drop (quarantine's damaged recipes, whose file entries stay as
// they are for the repair scheduler to find). The index is asked once
// for the whole container; container.Store.Rewrite then persists,
// repoints by compare-and-set (an entry re-placed since the question was
// asked is left alone) and deletes, in the order that keeps every index
// entry resolvable whichever step fails. It returns the entries dropped
// and the bytes reclaimed, both zero for a container left untouched.
//
// The caller excludes uploads for the duration — today by holding the
// server's GC write lock — since a share appended but not yet committed
// is indistinguishable from garbage.
func Compact(ix *index.Index, store *container.Store, name string, drop map[metadata.Fingerprint]bool) (dropped int, reclaimed int64, err error) {
	c, err := store.GetContainer(name)
	if err != nil {
		return 0, 0, err
	}
	keys := make([]metadata.Fingerprint, len(c.Entries))
	for i := range c.Entries {
		keys[i] = c.Entries[i].Key
	}
	at, err := placedIn(ix, c, keys)
	if err != nil {
		return 0, 0, err
	}
	keep := make([]bool, len(keys))
	for i, key := range keys {
		if keep[i] = at[i] == name && !drop[key]; !keep[i] {
			dropped++
		}
	}
	_, reclaimed, err = store.Rewrite(c, keep, func(newName string, kept []metadata.Fingerprint) error {
		if c.Type == container.ShareContainer {
			_, err := ix.RepointShares(kept, name, newName)
			return err
		}
		_, err := ix.RepointFiles(c.UserID, kept, name, newName)
		return err
	})
	return dropped, reclaimed, err
}

// placedIn asks the index, in one batched call, which container it maps
// each of c's keys to ("" for a key it does not know or has flagged
// damaged).
func placedIn(ix *index.Index, c *container.Container, keys []metadata.Fingerprint) ([]string, error) {
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
