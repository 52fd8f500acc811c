package server

import (
	"fmt"
	"testing"
	"time"

	"cdstore/internal/protocol"
)

// TestContendedReservationStress hammers the optimistic pass-4 path:
// many sessions repeatedly upload overlapping batches of the SAME new
// content in conflicting orders, across several rounds so later rounds
// also hit the committed-duplicate path. Every unique share must be
// stored exactly once and every session must terminate — under -race
// this is the stress proof for the contended-reservation rewrite
// (optimistic rescan + batched append instead of per-share blocking
// ReserveShare).
func TestContendedReservationStress(t *testing.T) {
	srv, _ := testServer(t)
	const (
		sessions  = 8
		rounds    = 4
		shares    = 192
		shareSize = 128
	)
	content := make([][]byte, shares)
	for i := range content {
		content[i] = make([]byte, shareSize)
		for j := range content[i] {
			content[i][j] = byte(i*37 + j*11)
		}
	}
	done := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		go func(s int) {
			pc := pipeTo(srv)
			defer pc.Close()
			if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(uint64(s+1))); err != nil {
				done <- err
				return
			}
			if _, _, err := readMsg(pc); err != nil {
				done <- err
				return
			}
			for r := 0; r < rounds; r++ {
				// Each session uploads a rotated, overlapping slice of the
				// content per round: reservations split across sessions and
				// each round's contested set differs.
				batch := make([]protocol.ShareUpload, 0, shares/2)
				for i := 0; i < shares/2; i++ {
					idx := (i*(s*2+1) + s*13 + r*29) % shares
					batch = append(batch, protocol.ShareUpload{
						SecretSeq:  uint64(i),
						SecretSize: shareSize,
						Data:       content[idx],
					})
				}
				if err := pc.WriteMsg(protocol.MsgPutShares, protocol.EncodeShareBatch(batch)); err != nil {
					done <- err
					return
				}
				typ, _, err := readMsg(pc)
				if err != nil {
					done <- err
					return
				}
				if typ != protocol.MsgPutOK {
					done <- fmt.Errorf("session %d round %d: reply type %d", s, r, typ)
					return
				}
			}
			done <- nil
		}(s)
	}
	for i := 0; i < sessions; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("contended-reservation stress hung")
		}
	}
	// Exactly-once storage: the union of all uploaded content, no doubles.
	unique := make(map[int]bool)
	for s := 0; s < sessions; s++ {
		for r := 0; r < rounds; r++ {
			for i := 0; i < shares/2; i++ {
				unique[(i*(s*2+1)+s*13+r*29)%shares] = true
			}
		}
	}
	st := srv.Stats()
	if st.SharesStored != uint64(len(unique)) {
		t.Fatalf("stored %d shares, want exactly %d", st.SharesStored, len(unique))
	}
	if n, err := srv.CountShares(); err != nil || n != len(unique) {
		t.Fatalf("index holds %d shares (%v), want %d", n, err, len(unique))
	}
}
