package client

import (
	"fmt"
	"io"
)

// RestoreStats reports what a restore downloaded.
type RestoreStats struct {
	Bytes   int64
	Secrets int64
	// SecretsReused counts those among Secrets whose row had already been
	// decoded and verified — earlier in the file or earlier in the session
	// — so that nothing was read for them: their bytes came out of the
	// session memo of verified secrets.
	SecretsReused int64
	// MemoRefetches counts secrets planned as reused whose row the memo
	// did not hold when they were due — it was evicted, or was never kept
	// because pinned entries filled the budget — and which were therefore
	// fetched, verified and decoded after all: the file's repeats that did
	// not fit.
	MemoRefetches int64
	// DownloadedBytes counts share bytes actually transferred from the
	// clouds. The engine fetches and decodes each distinct row once per
	// session while the session memo holds it, so for dedup-heavy data
	// this tracks distinct bytes, not recipe length — egress is billed
	// per byte, and the shares of a reused secret are not downloaded.
	DownloadedBytes int64
	// CacheHitBytes counts share bytes not downloaded: the k shares of
	// every reused secret.
	CacheHitBytes int64
	// SubsetRetries counts secrets whose first decode failed integrity
	// checks and that went through the one recovery: shares checked
	// against their recipe fingerprints, the unverified ones fetched
	// again, and the brute-force search of §3.2 over the k-subsets of the
	// verified shares. In a repair it counts rows rebuilt from recovered
	// shares.
	SubsetRetries int64
	// Failovers counts primary clouds replaced by spares mid-restore (both
	// possible while more than k clouds are up): one whose fetch failed,
	// dropped for the rest of the restore, and one that served a share
	// failing its recipe fingerprint, demoted to the last spare.
	Failovers int64
	// LaggingClouds counts clouds that missed an overwrite's recipe: they
	// hold another version than the clouds read from, and are not spares.
	LaggingClouds int64
}

// Restore downloads the named backup from any k available clouds and
// streams the reassembled file to w through the pipelined restore engine
// (prefetched windows, arena-threaded decode workers, in-order writer —
// see restoreEngine). Corrupted shares are survived by keeping the shares
// that match their recipe fingerprints, fetching the others again and
// retrying k-subsets of the verified ones (§3.2's brute-force approach),
// and the cloud that served one gives its primary slot to a clean spare;
// a cloud failing mid-restore is survived by failing over to a spare
// cloud while more than k are reachable.
//
// A session decodes each distinct row once: a secret whose row this
// Client has already restored — in this file or an earlier one — is
// written from the session memo of verified secrets (at most
// restoreMemoBytes of them) without fetching or decoding anything. The
// restore knows every row its file reads before it starts, so the memo
// keeps those: entries the file will read are pinned until it has read
// them, and only unpinned entries are evicted, least recently used
// first. A memo hit is a read of bytes this session verified, not a
// statement about what the clouds hold now.
func (c *Client) Restore(path string, w io.Writer) (*RestoreStats, error) {
	e, err := c.newRestoreEngine(path, noTarget)
	if err != nil {
		return nil, err
	}
	err = e.run(e.planFile(), func(d decodedSecret) error {
		_, werr := w.Write(d.data)
		return werr
	})
	if err != nil {
		return nil, err
	}
	stats := e.stats()
	if uint64(stats.Bytes) != e.fileSize {
		return nil, fmt.Errorf("client: restored %d bytes, recipe says %d", stats.Bytes, e.fileSize)
	}
	return stats, nil
}
