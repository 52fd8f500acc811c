package client

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"strings"
	"testing"

	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// The repair engine checks every share it rebuilds from against the
// fingerprint its cloud's recipe holds; a rebuild itself (CAONTRS.
// RebuildInto) is one Reed-Solomon row and checks nothing. A restore
// checks the fingerprints once a decode fails, and both recover the
// secret the same way (recoverShares). These tests serve tampered shares
// to a repair or a restore and hold the engine to refusing them.

// flipStoredShare XORs byte pos of cloud pc's stored share fp with mask,
// keeping its container's framing and CRC valid, so the cloud serves the
// flipped bytes under the share's fingerprint. Flipping twice undoes it.
func (pc *pipeCloud) flipStoredShare(t *testing.T, fp metadata.Fingerprint, pos int, mask byte) {
	t.Helper()
	if err := pc.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	flipped := 0
	_, err := storage.Corrupt(pc.backend,
		func(name string) bool { return strings.HasPrefix(name, "share-") },
		func(name string, raw []byte) []byte {
			out := append([]byte(nil), raw...)
			c, err := container.Unmarshal(name, out)
			if err != nil {
				return raw
			}
			for _, e := range c.Entries {
				if e.Key == fp {
					e.Data[pos] ^= mask
					flipped++
				}
			}
			body := out[:len(out)-4]
			binary.BigEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
			return out
		})
	if err != nil || flipped != 1 {
		t.Fatalf("flipped share %s in %d places: %v", fp, flipped, err)
	}
	pc.srv.DropCaches()
}

// oneShare returns the one share a cloud holds.
func (pc *pipeCloud) oneShare(t *testing.T) (metadata.Fingerprint, []byte) {
	t.Helper()
	stored := pc.storedShares(t)
	if len(stored) != 1 {
		t.Fatalf("cloud holds %d shares, want 1", len(stored))
	}
	for fp, share := range stored {
		return fp, share
	}
	panic("unreachable")
}

// forgetFile deletes path from one cloud only, so that a repair of it
// there rebuilds and sends every share again.
func forgetFile(t *testing.T, c *Client, cloud int, path string) {
	t.Helper()
	if _, err := c.conns[cloud].call(protocol.MsgDeleteFile, protocol.EncodeString(path), protocol.MsgPutOK); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildDetectsCorruption flips every byte of the share each
// survivor serves a repair — bytes that decode into the plaintext, into
// the zero padding and into the 32-byte tail alike — and requires the
// engine to refuse it by its recipe fingerprint and never send a share
// built from it. At (4,3) the three survivors are all the repair has: it
// fails and the target receives nothing. At (5,3) the cloud that served
// the flip is demoted, the clean spare takes its place, and the target
// receives exactly the share the backup stored.
func TestRebuildDetectsCorruption(t *testing.T) {
	for _, geom := range []struct{ n, k int }{{4, 3}, {5, 3}} {
		for _, size := range []int{1, 100} {
			cl := newPipeCluster(t, geom.n, geom.k)
			target := geom.n - 1
			opts := Options{K: geom.k}
			c := cl.connect(t, opts)
			if _, err := backup(c, "/f", repairTestData(int64(size), size)); err != nil {
				t.Fatal(err)
			}
			want := cl[target].storedShares(t)
			forgetFile(t, c, target, "/f")
			for cloud := 0; cloud < geom.k; cloud++ { // the primaries
				fp, share := cl[cloud].oneShare(t)
				for pos := range share {
					mask := byte(1) << uint(pos%8)
					cl[cloud].flipStoredShare(t, fp, pos, mask)
					before := cl[target].srv.Stats().SharesReceived
					st, err := cl.connect(t, opts).Repair("/f", target)
					received := cl[target].srv.Stats().SharesReceived - before
					if geom.n == 4 {
						if err == nil || !strings.Contains(err.Error(), "recipe fingerprints") || received != 0 {
							t.Fatalf("(4,3) size %d: flip at cloud %d byte %d: err=%v, %d shares sent", size, cloud, pos, err, received)
						}
					} else {
						if err != nil || st.Restore.Failovers != 1 || st.Restore.SubsetRetries != 1 || received != 1 {
							t.Fatalf("(5,3) size %d: flip at cloud %d byte %d: %+v, %v, %d shares sent", size, cloud, pos, st, err, received)
						}
						if got := cl[target].storedShares(t); !maps.EqualFunc(got, want, bytes.Equal) {
							t.Fatalf("(5,3) size %d: flip at cloud %d byte %d reached the target", size, cloud, pos)
						}
						forgetFile(t, c, target, "/f")
					}
					cl[cloud].flipStoredShare(t, fp, pos, mask)
				}
			}
		}
	}
}

// FuzzRepairRefusesTamperedShare drives a repair at (5,3) over arbitrary
// one-secret files, with one byte of one survivor's share flipped or
// none. Untouched, the repair reads the three primaries and sends the
// stored share. Flipped, the flip is refused by its recipe fingerprint:
// its cloud is demoted, the share is rebuilt from the clean survivors,
// and the target still receives exactly the share the backup stored.
func FuzzRepairRefusesTamperedShare(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint16(0), uint8(0))
	f.Add([]byte("convergent dispersal"), uint8(1), uint16(3), uint8(0x01))
	f.Add(bytes.Repeat([]byte{0}, 31), uint8(2), uint16(40), uint8(0x80))
	f.Add(bytes.Repeat([]byte{0x5A}, 4096), uint8(0), uint16(1400), uint8(0xFF))
	f.Fuzz(func(t *testing.T, secret []byte, cloud uint8, flipAt uint16, flipMask uint8) {
		if len(secret) == 0 || len(secret) > sessionChunk {
			t.Skip()
		}
		const target = 4
		cl := newPipeCluster(t, 5, 3)
		opts := Options{K: 3}
		if _, err := backup(cl.connect(t, opts), "/f", secret); err != nil {
			t.Fatal(err)
		}
		want := cl[target].storedShares(t)
		src := int(cloud) % 3
		if flipMask != 0 {
			fp, share := cl[src].oneShare(t)
			cl[src].flipStoredShare(t, fp, int(flipAt)%len(share), flipMask)
		}
		cl[target] = newPipeCloud(t, target, 5, 3)
		st, err := cl.connect(t, opts).Repair("/f", target)
		if err != nil {
			t.Fatalf("repair with a flip of %#x at cloud %d: %v", flipMask, src, err)
		}
		moves := int64(0) // demotions and retries: one for the flip, if any
		if flipMask != 0 {
			moves = 1
		}
		if st.Restore.Failovers != moves || st.Restore.SubsetRetries != moves {
			t.Fatalf("flip of %#x at cloud %d: %+v, want %d demotions and retries", flipMask, src, st.Restore, moves)
		}
		if got := cl[target].storedShares(t); !maps.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("flip of %#x at cloud %d: the target holds other shares than the backup stored", flipMask, src)
		}
	})
}

// TestRepairOfMisstatedSecretSizeWritesTheStoredShare: recipes that
// misstate a secret's size as 99 for 100 bytes (both pad to one share
// size at k=3, and the 100th byte is not zero) describe a file no restore
// can return, and the one-row rebuild cannot tell, because it decodes
// nothing. That is sound: the repair writes exactly the share the backup
// stored, so the target holds what the others do, and restore, which
// decodes, still refuses the file on its zero-padding check.
func TestRepairOfMisstatedSecretSizeWritesTheStoredShare(t *testing.T) {
	const target = 3
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3}
	c := cl.connect(t, opts)
	secret := repairTestData(63, 100)
	secret[99] = 0xA5
	if _, err := backup(c, "/pad.bin", secret); err != nil {
		t.Fatal(err)
	}
	want := cl[target].storedShares(t)
	for i := range cl {
		r := recipeOn(t, c, i, "/pad.bin")
		r.FileSize, r.Entries[0].SecretSize = 99, 99
		if _, err := c.conns[i].call(protocol.MsgPutRecipe, r.Marshal(), protocol.MsgPutOK); err != nil {
			t.Fatal(err)
		}
	}
	cl[target] = newPipeCloud(t, target, 4, 3)
	if st, err := cl.connect(t, opts).Repair("/pad.bin", target); err != nil || st.SharesRebuilt != 1 {
		t.Fatalf("repair under a misstated secret size: %+v, %v", st, err)
	}
	if got := cl[target].storedShares(t); !maps.EqualFunc(got, want, bytes.Equal) {
		t.Fatal("the repair wrote another share than the backup stored")
	}
	_, err := cl.connect(t, opts, 0).Restore("/pad.bin", &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("restore of a misstated secret size through the repaired cloud: err=%v, want an integrity failure", err)
	}
}

// TestRestoreRecoveryRefetchesOnlyUnverifiedShares flips every byte of the
// share each primary serves a (5,3) restore of a one-secret file. The
// decode fails, the flipped cloud is demoted and a clean spare takes its
// slot, and the secret is recovered from the shares that match their
// recipe fingerprints: the two verified primaries' shares in hand, and the
// spares' fetched for it. The flipped cloud is asked again, since its copy
// may have been a corrupted download, but the verified primaries are not,
// and the first 3-subset of verified shares decodes.
func TestRestoreRecoveryRefetchesOnlyUnverifiedShares(t *testing.T) {
	const n, k = 5, 3
	for _, size := range []int{1, 100} {
		cl := newPipeCluster(t, n, k)
		opts := Options{K: k}
		data := repairTestData(int64(size), size)
		if _, err := backup(cl.connect(t, opts), "/f", data); err != nil {
			t.Fatal(err)
		}
		for cloud := 0; cloud < k; cloud++ { // the primaries
			fp, share := cl[cloud].oneShare(t)
			for pos := range share {
				mask := byte(1) << uint(pos%8)
				cl[cloud].flipStoredShare(t, fp, pos, mask)
				before := cl.servedBy()
				var out bytes.Buffer
				st, err := cl.connect(t, opts).Restore("/f", &out)
				if err != nil || !bytes.Equal(out.Bytes(), data) {
					t.Fatalf("size %d: flip at cloud %d byte %d: restore err=%v, byte-identical %v", size, cloud, pos, err, bytes.Equal(out.Bytes(), data))
				}
				if st.Failovers != 1 || st.SubsetRetries != 1 {
					t.Fatalf("size %d: flip at cloud %d byte %d: %+v, want 1 demotion and 1 subset retry", size, cloud, pos, st)
				}
				for i, now := range cl.servedBy() {
					want := uint64(1) // each cloud's share once: the primaries' in the window, the spares' for the recovery
					if i == cloud {
						want = 2 // and the flipped share again
					}
					if got := now - before[i]; got != want {
						t.Fatalf("size %d: flip at cloud %d byte %d: cloud %d served %d shares, want %d", size, cloud, pos, i, got, want)
					}
				}
				cl[cloud].flipStoredShare(t, fp, pos, mask)
			}
		}
	}
}

// backupWithSwappedEntries backs up /swap, two distinct secrets of
// sessionChunk bytes, and rewrites cloud 0's recipe of it with the two
// entries swapped, under the version the backup wrote. It returns the
// file's bytes.
func backupWithSwappedEntries(t *testing.T, cl pipeCluster, opts Options) []byte {
	t.Helper()
	c := cl.connect(t, opts)
	data := chunksOf(0, 1)
	if _, err := backup(c, "/swap", data); err != nil {
		t.Fatal(err)
	}
	r := recipeOn(t, c, 0, "/swap")
	r.Entries[0], r.Entries[1] = r.Entries[1], r.Entries[0]
	if _, err := c.conns[0].call(protocol.MsgPutRecipe, r.Marshal(), protocol.MsgPutOK); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRestoreOfSwappedRecipeEntriesSearchesVerifiedSubsets: cloud 0's
// recipe names the shares of a file's two equal-size secrets in swapped
// order, under the version the backup wrote, so it still agrees with the
// others and every share cloud 0 serves matches its recipe fingerprint,
// but belongs to the other row. No share fails its fingerprint, so
// nothing is demoted; each secret's decode fails, the spare's share is
// fetched, and the §3.2 search over the four verified shares finds the
// one 3-subset without cloud 0. This is why a restore still searches
// subsets after checking fingerprints.
func TestRestoreOfSwappedRecipeEntriesSearchesVerifiedSubsets(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3}
	data := backupWithSwappedEntries(t, cl, opts)
	before := cl.servedBy()
	var out bytes.Buffer
	st, err := cl.connect(t, opts).Restore("/swap", &out)
	if err != nil || !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("restore through swapped recipe entries: err=%v, byte-identical %v", err, bytes.Equal(out.Bytes(), data))
	}
	if st.SubsetRetries != 2 || st.Failovers != 0 {
		t.Fatalf("%+v, want 2 subset retries and 0 failovers", st)
	}
	for i, now := range cl.servedBy() {
		if got := now - before[i]; got != 2 { // primaries in the window, the spare in the recoveries
			t.Errorf("cloud %d served %d shares for 2 secrets, want 2", i, got)
		}
	}
}

// TestRepairOfSwappedRecipeEntriesWritesUnstoredShares pins a known
// defect: the one-row rebuild trusts the order of the entries in each
// survivor's recipe. Cloud 0's recipe names its shares of the two rows
// in swapped order (the setup above), so every share it serves matches
// its recipe fingerprint and nothing is demoted, but the rows rebuilt
// onto an empty cloud 3 from it are shares the backup never stored. The
// repair reports success, and a restore that then needs cloud 3 fails.
// When the defect is fixed — the repair fails, or rebuilds the stored
// shares — flip this test to assert that instead.
func TestRepairOfSwappedRecipeEntriesWritesUnstoredShares(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3}
	backupWithSwappedEntries(t, cl, opts)
	original := cl[3].storedShares(t)
	cl[3] = newPipeCloud(t, 3, 4, 3)
	st, err := cl.connect(t, opts).Repair("/swap", 3)
	if err != nil || st.SharesRebuilt != 2 || st.Restore.SubsetRetries != 0 {
		t.Fatalf("repair through swapped recipe entries: %+v, %v; want 2 shares rebuilt, 0 subset retries", st, err)
	}
	if maps.EqualFunc(cl[3].storedShares(t), original, bytes.Equal) {
		t.Fatal("the repair rebuilt the shares the backup stored: the defect is fixed, flip this test")
	}
	var out bytes.Buffer
	_, err = cl.connect(t, opts, 0).Restore("/swap", &out)
	if want := "all 3-subsets of 3 verified shares failed integrity checks"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("restore with cloud 0 down after the repair: %v, want %q", err, want)
	}
}
