package index

import (
	"sync"

	"cdstore/internal/metadata"
)

// ScanShares visits every committed share entry, shard by shard (the
// scrubber's whole-index walks). fn must not mutate the index (see
// lsmkv.DB.Scan's locking contract); collect entries during the scan and
// write after it returns. In-flight reservations are not visited.
func (ix *Index) ScanShares(fn func(*ShareEntry) error) error {
	for _, sh := range ix.shards {
		err := sh.db.Scan([]byte(sharePrefix), func(k, v []byte) error {
			var fp metadata.Fingerprint
			copy(fp[:], k[len(sharePrefix):])
			e, err := unmarshalShareEntry(fp, v)
			if err != nil {
				return err
			}
			return fn(e)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ScanFiles visits every file entry of every user.
func (ix *Index) ScanFiles(fn func(*FileEntry) error) error {
	return ix.files.Scan([]byte(filePrefix), func(_, v []byte) error {
		e, err := unmarshalFileEntry(v)
		if err != nil {
			return err
		}
		return fn(e)
	})
}

// Compact merges the underlying LSM stores (dropping tombstones),
// shrinking the index after heavy deletion churn. Shards compact in
// parallel.
func (ix *Index) Compact() error {
	var wg sync.WaitGroup
	errs := make([]error, NumShards)
	for i, sh := range ix.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = sh.db.Compact()
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ix.files.Compact()
}
