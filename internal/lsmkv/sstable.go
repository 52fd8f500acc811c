package lsmkv

import (
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

// writeSSTable persists sorted, deduplicated entries to path.
func writeSSTable(path string, entries []kvEntry) error {
	var data bytes.Buffer
	var index bytes.Buffer
	filter := bloom.NewWithEstimates(uint64(len(entries))+1, 0.01)

	blockStart := 0
	var blockFirstKey []byte
	flushIndex := func(endOff int) {
		if blockFirstKey == nil {
			return
		}
		var kl [4]byte
		binary.BigEndian.PutUint32(kl[:], uint32(len(blockFirstKey)))
		index.Write(kl[:])
		index.Write(blockFirstKey)
		var off [16]byte
		binary.BigEndian.PutUint64(off[:8], uint64(blockStart))
		binary.BigEndian.PutUint64(off[8:], uint64(endOff-blockStart))
		index.Write(off[:])
		blockFirstKey = nil
	}

	for _, e := range entries {
		if blockFirstKey == nil {
			blockStart = data.Len()
			blockFirstKey = e.key
		}
		op := opValue
		if e.tombstone {
			op = opTombstone
		}
		var hdr [9]byte
		hdr[0] = op
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(e.key)))
		binary.BigEndian.PutUint32(hdr[5:], uint32(len(e.value)))
		data.Write(hdr[:])
		data.Write(e.key)
		data.Write(e.value)
		filter.Add(e.key)
		if data.Len()-blockStart >= blockSize {
			flushIndex(data.Len())
		}
	}
	flushIndex(data.Len())

	bloomBytes := filter.Marshal()
	var out bytes.Buffer
	out.Write(data.Bytes())
	indexOff := out.Len()
	out.Write(index.Bytes())
	bloomOff := out.Len()
	out.Write(bloomBytes)

	var footer [footerSize]byte
	binary.BigEndian.PutUint64(footer[0:], uint64(indexOff))
	binary.BigEndian.PutUint64(footer[8:], uint64(index.Len()))
	binary.BigEndian.PutUint64(footer[16:], uint64(bloomOff))
	binary.BigEndian.PutUint64(footer[24:], uint64(len(bloomBytes)))
	binary.BigEndian.PutUint64(footer[32:], uint64(len(entries)))
	crc := crc32.ChecksumIEEE(footer[:40])
	binary.BigEndian.PutUint32(footer[40:], crc)
	binary.BigEndian.PutUint32(footer[44:], uint32(sstMagic&0xFFFFFFFF))
	out.Write(footer[:])

	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out.Bytes(), 0o644); err != nil {
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
	count  int
	cache  *cache.LRU // shared block cache, keyed by path:offset
}

type blockMeta struct {
	firstKey []byte
	off      int64
	len      int64
	cacheKey string // "path:off", built once at open
}

func openSSTable(path string, blockCache *cache.LRU) (*ssTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < footerSize {
		f.Close()
		return nil, fmt.Errorf("%w: %s too small", ErrCorruptTable, path)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], st.Size()-footerSize); err != nil {
		f.Close()
		return nil, err
	}
	if binary.BigEndian.Uint32(footer[44:]) != uint32(sstMagic&0xFFFFFFFF) {
		f.Close()
		return nil, fmt.Errorf("%w: %s bad magic", ErrCorruptTable, path)
	}
	if crc32.ChecksumIEEE(footer[:40]) != binary.BigEndian.Uint32(footer[40:]) {
		f.Close()
		return nil, fmt.Errorf("%w: %s footer crc", ErrCorruptTable, path)
	}
	indexOff := int64(binary.BigEndian.Uint64(footer[0:]))
	indexLen := int64(binary.BigEndian.Uint64(footer[8:]))
	bloomOff := int64(binary.BigEndian.Uint64(footer[16:]))
	bloomLen := int64(binary.BigEndian.Uint64(footer[24:]))
	count := int(binary.BigEndian.Uint64(footer[32:]))
	if indexOff < 0 || indexLen < 0 || bloomOff < 0 || bloomLen < 0 ||
		indexOff+indexLen > st.Size() || bloomOff+bloomLen > st.Size() {
		f.Close()
		return nil, fmt.Errorf("%w: %s bad offsets", ErrCorruptTable, path)
	}

	idx := make([]byte, indexLen)
	if _, err := f.ReadAt(idx, indexOff); err != nil {
		f.Close()
		return nil, err
	}
	var blocks []blockMeta
	for p := 0; p < len(idx); {
		if p+4 > len(idx) {
			f.Close()
			return nil, fmt.Errorf("%w: %s index truncated", ErrCorruptTable, path)
		}
		klen := int(binary.BigEndian.Uint32(idx[p:]))
		p += 4
		if klen > maxEntrySanity || p+klen+16 > len(idx) {
			f.Close()
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
		f.Close()
		return nil, err
	}
	filter, err := bloom.Unmarshal(bl)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s bloom: %v", ErrCorruptTable, path, err)
	}
	return &ssTable{path: path, f: f, filter: filter, blocks: blocks, count: count, cache: blockCache}, nil
}

func (t *ssTable) close() error { return t.f.Close() }

// readBlock fetches a data block, via the shared cache when available.
func (t *ssTable) readBlock(i int) ([]byte, error) {
	bm := t.blocks[i]
	if t.cache != nil {
		if v, ok := t.cache.Get(bm.cacheKey); ok {
			return v.([]byte), nil
		}
	}
	buf := make([]byte, bm.len)
	if _, err := t.f.ReadAt(buf, bm.off); err != nil {
		return nil, err
	}
	if t.cache != nil {
		t.cache.AddCharged(bm.cacheKey, buf, bm.len)
	}
	return buf, nil
}

// get looks up key, returning (value, tombstone, found, error). value
// aliases the (immutable) cached block.
func (t *ssTable) get(key []byte) ([]byte, bool, bool, error) {
	if !t.filter.MayContain(key) {
		return nil, false, false, nil
	}
	// Find the last block whose firstKey <= key.
	i := sort.Search(len(t.blocks), func(i int) bool {
		return bytes.Compare(t.blocks[i].firstKey, key) > 0
	}) - 1
	if i < 0 {
		return nil, false, false, nil
	}
	block, err := t.readBlock(i)
	if err != nil {
		return nil, false, false, err
	}
	for p := 0; p < len(block); {
		if p+9 > len(block) {
			return nil, false, false, fmt.Errorf("%w: %s block entry header", ErrCorruptTable, t.path)
		}
		op := block[p]
		klen := int(binary.BigEndian.Uint32(block[p+1:]))
		vlen := int(binary.BigEndian.Uint32(block[p+5:]))
		p += 9
		if klen > maxEntrySanity || vlen > maxEntrySanity || p+klen+vlen > len(block) {
			return nil, false, false, fmt.Errorf("%w: %s block entry body", ErrCorruptTable, t.path)
		}
		ekey := block[p : p+klen]
		cmp := bytes.Compare(ekey, key)
		if cmp == 0 {
			return block[p+klen : p+klen+vlen : p+klen+vlen], op == opTombstone, true, nil
		}
		if cmp > 0 {
			return nil, false, false, nil // sorted: passed the key
		}
		p += klen + vlen
	}
	return nil, false, false, nil
}

// iterate streams every entry in key order.
func (t *ssTable) iterate(fn func(e kvEntry) error) error {
	for i := range t.blocks {
		block, err := t.readBlock(i)
		if err != nil {
			return err
		}
		for p := 0; p < len(block); {
			if p+9 > len(block) {
				return fmt.Errorf("%w: %s iterate header", ErrCorruptTable, t.path)
			}
			op := block[p]
			klen := int(binary.BigEndian.Uint32(block[p+1:]))
			vlen := int(binary.BigEndian.Uint32(block[p+5:]))
			p += 9
			if p+klen+vlen > len(block) {
				return fmt.Errorf("%w: %s iterate body", ErrCorruptTable, t.path)
			}
			e := kvEntry{
				key:       append([]byte(nil), block[p:p+klen]...),
				value:     append([]byte(nil), block[p+klen:p+klen+vlen]...),
				tombstone: op == opTombstone,
			}
			if err := fn(e); err != nil {
				return err
			}
			p += klen + vlen
		}
	}
	return nil
}
