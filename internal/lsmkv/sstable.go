package lsmkv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strconv"

	"cdstore/internal/bloom"
	"cdstore/internal/cache"
)

// SSTable file layout:
//
//	data blocks   — consecutive entries, each block ~blockSize bytes:
//	                 [op:1][klen:4][vlen:4][key][value]...
//	index block   — per data block: [klen:4][firstKey][off:8][len:8]
//	bloom block   — marshaled bloom.Filter over every key
//	footer (44B)  — indexOff:8 indexLen:8 bloomOff:8 bloomLen:8
//	                 entryCount:8 crc32(footer[0:40]):4 ... magic:8? (magic
//	                 folded into crc via fixed seed below)
//
// Entries within a table are unique and sorted; tombstones are stored so
// that newer tables can shadow older ones until compaction drops them.
const (
	blockSize      = 4096
	footerSize     = 48
	sstMagic       = uint64(0xCD5704E1AB1E5AFE)
	opValue        = byte(1)
	opTombstone    = byte(2)
	maxEntrySanity = 1 << 28
)

// ErrCorruptTable marks a structurally invalid SSTable file.
var ErrCorruptTable = errors.New("lsmkv: corrupt sstable")

// writeSSTable persists sorted, deduplicated entries to path, streaming
// the data blocks to the file as it goes; only the block index and the
// Bloom filter are held back, to be written behind them.
func writeSSTable(path string, entries []kvEntry) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 256<<10)
	var index []byte
	filter := bloom.NewWithEstimates(uint64(len(entries))+1, 0.01)

	off, blockStart := 0, 0
	var blockFirstKey []byte
	flushIndex := func() {
		if blockFirstKey == nil {
			return
		}
		index = binary.BigEndian.AppendUint32(index, uint32(len(blockFirstKey)))
		index = append(index, blockFirstKey...)
		index = binary.BigEndian.AppendUint64(index, uint64(blockStart))
		index = binary.BigEndian.AppendUint64(index, uint64(off-blockStart))
		blockFirstKey = nil
	}

	var hdr [9]byte // outside the loop: Write makes it escape
	for _, e := range entries {
		if blockFirstKey == nil {
			blockStart = off
			blockFirstKey = e.key
		}
		hdr[0] = opValue
		if e.tombstone {
			hdr[0] = opTombstone
		}
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(e.key)))
		binary.BigEndian.PutUint32(hdr[5:], uint32(len(e.value)))
		w.Write(hdr[:]) // a bufio.Writer keeps its first error for Flush
		w.Write(e.key)
		w.Write(e.value)
		off += len(hdr) + len(e.key) + len(e.value)
		filter.Add(e.key)
		if off-blockStart >= blockSize {
			flushIndex()
		}
	}
	flushIndex()

	bloomBytes := filter.Marshal()
	var footer [footerSize]byte
	binary.BigEndian.PutUint64(footer[0:], uint64(off))
	binary.BigEndian.PutUint64(footer[8:], uint64(len(index)))
	binary.BigEndian.PutUint64(footer[16:], uint64(off+len(index)))
	binary.BigEndian.PutUint64(footer[24:], uint64(len(bloomBytes)))
	binary.BigEndian.PutUint64(footer[32:], uint64(len(entries)))
	binary.BigEndian.PutUint32(footer[40:], crc32.ChecksumIEEE(footer[:40]))
	binary.BigEndian.PutUint32(footer[44:], uint32(sstMagic&0xFFFFFFFF))
	w.Write(index)
	w.Write(bloomBytes)
	w.Write(footer[:])
	if err = w.Flush(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// ssTable is an open reader over one SSTable file.
type ssTable struct {
	path   string
	f      *os.File
	filter *bloom.Filter
	// index entries, sorted by firstKey
	blocks []blockMeta
	cache  *cache.LRU // shared block cache, keyed by path:offset
}

type blockMeta struct {
	firstKey []byte
	off      int64
	len      int64
	cacheKey string // "path:off", built once at open
}

func openSSTable(path string, blockCache *cache.LRU) (_ *ssTable, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < footerSize {
		return nil, fmt.Errorf("%w: %s too small", ErrCorruptTable, path)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(footer[44:]) != uint32(sstMagic&0xFFFFFFFF) {
		return nil, fmt.Errorf("%w: %s bad magic", ErrCorruptTable, path)
	}
	if crc32.ChecksumIEEE(footer[:40]) != binary.BigEndian.Uint32(footer[40:]) {
		return nil, fmt.Errorf("%w: %s footer crc", ErrCorruptTable, path)
	}
	indexOff := int64(binary.BigEndian.Uint64(footer[0:]))
	indexLen := int64(binary.BigEndian.Uint64(footer[8:]))
	bloomOff := int64(binary.BigEndian.Uint64(footer[16:]))
	bloomLen := int64(binary.BigEndian.Uint64(footer[24:]))
	if indexOff < 0 || indexLen < 0 || bloomOff < 0 || bloomLen < 0 ||
		indexOff+indexLen > st.Size() || bloomOff+bloomLen > st.Size() {
		return nil, fmt.Errorf("%w: %s bad offsets", ErrCorruptTable, path)
	}

	idx := make([]byte, indexLen)
	if _, err := f.ReadAt(idx, indexOff); err != nil {
		return nil, err
	}
	var blocks []blockMeta
	for p := 0; p < len(idx); {
		if p+4 > len(idx) {
			return nil, fmt.Errorf("%w: %s index truncated", ErrCorruptTable, path)
		}
		klen := int(binary.BigEndian.Uint32(idx[p:]))
		p += 4
		if klen > maxEntrySanity || p+klen+16 > len(idx) {
			return nil, fmt.Errorf("%w: %s index entry", ErrCorruptTable, path)
		}
		key := append([]byte(nil), idx[p:p+klen]...)
		p += klen
		off := int64(binary.BigEndian.Uint64(idx[p:]))
		blen := int64(binary.BigEndian.Uint64(idx[p+8:]))
		p += 16
		blocks = append(blocks, blockMeta{firstKey: key, off: off, len: blen,
			cacheKey: path + ":" + strconv.FormatInt(off, 10)})
	}

	bl := make([]byte, bloomLen)
	if _, err := f.ReadAt(bl, bloomOff); err != nil {
		return nil, err
	}
	filter, err := bloom.Unmarshal(bl)
	if err != nil {
		return nil, fmt.Errorf("%w: %s bloom: %v", ErrCorruptTable, path, err)
	}
	return &ssTable{path: path, f: f, filter: filter, blocks: blocks, cache: blockCache}, nil
}

func (t *ssTable) close() error { return t.f.Close() }

// readBlock fetches a data block, via the shared cache.
func (t *ssTable) readBlock(i int) ([]byte, error) {
	bm := t.blocks[i]
	if v, ok := t.cache.Get(bm.cacheKey); ok {
		return v.([]byte), nil
	}
	buf := make([]byte, bm.len)
	if _, err := t.f.ReadAt(buf, bm.off); err != nil {
		return nil, err
	}
	t.cache.AddCharged(bm.cacheKey, buf, bm.len)
	return buf, nil
}

// entryAt parses the entry at block[p:] and returns the offsets of its
// key, its value and the entry after; ok is false on a framing error.
func entryAt(block []byte, p int) (k, v, end int, ok bool) {
	if p+9 > len(block) {
		return 0, 0, 0, false
	}
	klen := int(binary.BigEndian.Uint32(block[p+1:]))
	vlen := int(binary.BigEndian.Uint32(block[p+5:]))
	k = p + 9
	v, end = k+klen, k+klen+vlen
	return k, v, end, klen <= maxEntrySanity && vlen <= maxEntrySanity && end <= len(block)
}

// blockFor returns the index of the one block that can hold key: the last
// whose firstKey <= key, or -1 when key sorts before the whole table.
func (t *ssTable) blockFor(key []byte) int {
	return sort.Search(len(t.blocks), func(i int) bool {
		return bytes.Compare(t.blocks[i].firstKey, key) > 0
	}) - 1
}

// get looks up key, returning (value, tombstone, found, error). value
// aliases the (immutable) cached block. The point-read hot path: it
// walks its block in place rather than through a tableIter.
func (t *ssTable) get(key []byte) ([]byte, bool, bool, error) {
	if !t.filter.MayContain(key) {
		return nil, false, false, nil
	}
	i := t.blockFor(key)
	if i < 0 {
		return nil, false, false, nil
	}
	block, err := t.readBlock(i)
	if err != nil {
		return nil, false, false, err
	}
	for p := 0; p < len(block); {
		k, v, end, ok := entryAt(block, p)
		if !ok {
			return nil, false, false, fmt.Errorf("%w: %s block entry", ErrCorruptTable, t.path)
		}
		if cmp := bytes.Compare(block[k:v], key); cmp == 0 {
			return block[v:end:end], block[p] == opTombstone, true, nil
		} else if cmp > 0 {
			break // sorted: passed the key
		}
		p = end
	}
	return nil, false, false, nil
}

// tableIter walks a table's entries in key order from a seek position.
// cur aliases cached blocks and is meaningful while valid.
type tableIter struct {
	t     *ssTable
	next  int    // index of the block after the loaded one
	block []byte // the loaded block
	p     int    // offset in block of the entry after cur
	cur   kvEntry
	valid bool
}

// seek positions an iterator at the first entry whose key is >= key: the
// block index holds every block's first key, so it binary-searches to
// the one block that can hold key and reads nothing before it.
func (t *ssTable) seek(key []byte) (tableIter, error) {
	it := tableIter{t: t, next: max(t.blockFor(key), 0)}
	for {
		if err := it.advance(); err != nil || !it.valid || bytes.Compare(it.cur.key, key) >= 0 {
			return it, err
		}
	}
}

// advance moves to the next entry, loading the next block at a block's
// end; valid turns false after the table's last entry.
func (it *tableIter) advance() (err error) {
	if it.p == len(it.block) {
		if it.valid = it.next < len(it.t.blocks); !it.valid {
			return nil
		}
		if it.block, err = it.t.readBlock(it.next); err != nil {
			it.valid = false
			return err
		}
		it.next, it.p = it.next+1, 0
	}
	k, v, end, ok := entryAt(it.block, it.p)
	if it.valid = ok; !ok {
		return fmt.Errorf("%w: %s block entry", ErrCorruptTable, it.t.path)
	}
	it.cur = kvEntry{key: it.block[k:v:v], value: it.block[v:end:end], tombstone: it.block[it.p] == opTombstone}
	it.p = end
	return nil
}
