package server

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// TestScrubConcurrentWithPutsStress runs scrub passes, report assembly,
// and pause/resume flapping continuously while several sessions back up
// files, delete every other one and read back what they keep. Containers
// are small, so passes meet containers sealed mid-batch (shares appended
// but not yet committed) and reclaim deleted files' shares and recipes
// while sessions read from the containers being rewritten. Under -race
// this is the proof that the scrubber's backend walk and rewrites, the
// report's index walk (under gcMu's read side), and the put and get hot
// paths share the index and container store safely: no request may fail.
// After quiescing, one pass reclaims every deleted share, a second
// reclaims nothing, the store verifies clean, and every kept share reads
// back fingerprint-valid.
func TestScrubConcurrentWithPutsStress(t *testing.T) {
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const (
		sessions  = 6
		rounds    = 4
		perBatch  = 64
		shareSize = 256
	)

	stop := make(chan struct{})
	var scrubWG sync.WaitGroup
	stopScrub := sync.OnceFunc(func() { close(stop); scrubWG.Wait() })
	defer stopScrub() // before srv.Close, on every path
	scrubWG.Add(1)
	go func() {
		defer scrubWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := srv.RunScrubPass(); err != nil {
				t.Errorf("scrub pass: %v", err)
				return
			}
			if _, err := srv.ScrubReport(); err != nil {
				t.Errorf("scrub report: %v", err)
				return
			}
			// Flap pause/resume so the budget gate's paused branch is
			// exercised against concurrent control traffic too.
			if i%2 == 0 {
				srv.Scrubber().Pause()
				srv.Scrubber().Resume()
			}
		}
	}()

	// Session s's round r backs up file /r<r>; odd rounds are deleted
	// straight away. No share is in both an odd and an even round.
	kept := make([][]metadata.Fingerprint, sessions)
	deleted := map[metadata.Fingerprint]bool{}
	var deletedMu sync.Mutex
	done := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		go func(s int) {
			a, b := net.Pipe()
			go srv.ServeConn(a)
			pc := protocol.NewConn(b)
			defer pc.Close()
			exchange := func(typ byte, payload []byte, want byte) ([]byte, error) {
				if err := pc.WriteMsg(typ, payload); err != nil {
					return nil, err
				}
				rtyp, reply, err := pc.ReadMsg()
				if err != nil {
					return nil, err
				}
				if rtyp != want {
					return nil, fmt.Errorf("session %d: reply type %d (%s), want %d", s, rtyp, reply, want)
				}
				return reply, nil
			}
			if _, err := exchange(protocol.MsgHello, protocol.EncodeHello(uint64(s+1)), protocol.MsgHelloOK); err != nil {
				done <- err
				return
			}
			for r := 0; r < rounds; r++ {
				batch := make([]protocol.ShareUpload, 0, perBatch)
				recipe := &metadata.Recipe{FileMeta: metadata.FileMeta{Path: fmt.Sprintf("/r%d", r), FileSize: perBatch * shareSize, NumSecrets: perBatch}}
				for i := 0; i < perBatch; i++ {
					data := make([]byte, shareSize)
					for j := range data {
						data[j] = byte(r*17 ^ i*31 ^ j)
					}
					// Odd positions are the session's own; even ones every
					// session uploads, so sessions contend for them.
					owner := byte(s)
					if i%2 == 0 {
						owner = sessions
					}
					data[0], data[1], data[2] = owner, byte(r), byte(i)
					batch = append(batch, protocol.ShareUpload{
						SecretSeq:  uint64(r*perBatch + i),
						SecretSize: shareSize,
						Data:       data,
					})
					recipe.Entries = append(recipe.Entries, metadata.RecipeEntry{
						ShareFP: metadata.FingerprintOf(data), ShareSize: shareSize, SecretSize: shareSize})
				}
				if _, err := exchange(protocol.MsgPutShares, protocol.EncodeShareBatch(batch), protocol.MsgPutOK); err != nil {
					done <- err
					return
				}
				if _, err := exchange(protocol.MsgPutRecipe, recipe.Marshal(), protocol.MsgPutOK); err != nil {
					done <- err
					return
				}
				for _, e := range recipe.Entries {
					if r%2 == 0 {
						kept[s] = append(kept[s], e.ShareFP)
					} else {
						deletedMu.Lock()
						deleted[e.ShareFP] = true
						deletedMu.Unlock()
					}
				}
				if r%2 == 1 {
					if _, err := exchange(protocol.MsgDeleteFile, protocol.EncodeString(recipe.Path), protocol.MsgPutOK); err != nil {
						done <- err
						return
					}
				}
				reply, err := exchange(protocol.MsgGetShares, protocol.EncodeFingerprints(kept[s]), protocol.MsgShares)
				if err == nil {
					err = checkShares(reply, kept[s])
				}
				if err != nil {
					done <- fmt.Errorf("session %d round %d: %w", s, r, err)
					return
				}
			}
			done <- nil
		}(s)
	}
	for i := 0; i < sessions; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	stopScrub()

	// Quiesce: flush buffered containers; one pass must see every
	// committed entry, find no damage and leave no deleted share stored.
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	pass, err := srv.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(pass.Damaged) != 0 {
		t.Fatalf("scrub of a healthy store found damage: %+v", pass.Damaged)
	}
	if pass.Entries == 0 {
		t.Fatal("final pass verified zero entries — uploads never reached the backend")
	}
	names, err := backend.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		raw, err := backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := container.Unmarshal(name, raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.Entries {
			if deleted[e.Key] {
				t.Fatalf("%s still holds deleted share %s after a pass over the quiesced store", name, e.Key)
			}
		}
	}
	if again, err := srv.RunScrubPass(); err != nil || again.ContainersRewritten != 0 || again.BytesReclaimed != 0 {
		t.Fatalf("second pass over the quiesced store still reclaimed: %+v, %v", again, err)
	}
	rep, err := srv.ScrubReport()
	if err != nil {
		t.Fatal(err)
	}
	if rep.DamagedOutstanding != 0 || len(rep.Affected) != 0 {
		t.Fatalf("healthy store reports outstanding damage: %+v", rep)
	}
	for s := range kept {
		pc := dial(t, srv, uint64(s+1))
		rtyp, reply := call(t, pc, protocol.MsgGetShares, protocol.EncodeFingerprints(kept[s]))
		if rtyp != protocol.MsgShares {
			t.Fatalf("user %d: kept shares: reply %d %s", s+1, rtyp, reply)
		}
		if err := checkShares(reply, kept[s]); err != nil {
			t.Fatalf("user %d: %v", s+1, err)
		}
	}
}

// checkShares decodes a MsgShares reply and checks it carries fps, in
// order, each with bytes that hash to it.
func checkShares(reply []byte, fps []metadata.Fingerprint) error {
	got, err := protocol.DecodeShares(reply)
	if err != nil {
		return err
	}
	if len(got) != len(fps) {
		return fmt.Errorf("%d shares served, %d asked", len(got), len(fps))
	}
	for i := range got {
		if got[i].Fingerprint != fps[i] || metadata.FingerprintOf(got[i].Data) != fps[i] {
			return fmt.Errorf("share %d served does not verify", i)
		}
	}
	return nil
}
