// Package container implements the CDStore server's container module
// (§4.5): globally unique shares and file recipes are packed into
// fixed-capacity containers (4MB by default) before being written to the
// cloud storage backend, amortizing backend I/O. Containers are
// single-user (preserving spatial locality of restores, §4.5), buffered
// in memory until full, and cached on read through an LRU cache.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"cdstore/internal/metadata"
)

// DefaultCapacity is the container size cap (§4.1, §4.5: 4MB).
const DefaultCapacity = 4 << 20

// Type distinguishes share containers from recipe containers.
type Type byte

// Container types.
const (
	ShareContainer  Type = 1
	RecipeContainer Type = 2
)

func (t Type) String() string {
	switch t {
	case ShareContainer:
		return "share"
	case RecipeContainer:
		return "recipe"
	default:
		return fmt.Sprintf("type(%d)", byte(t))
	}
}

// Entry is one object inside a container: a share keyed by its
// fingerprint, or a recipe keyed by its file key.
type Entry struct {
	Key  metadata.Fingerprint
	Data []byte
}

// Container is a parsed container.
type Container struct {
	Name    string
	Type    Type
	UserID  uint64
	Entries []Entry

	indexOnce sync.Once
	index     map[metadata.Fingerprint]int
}

// Find returns the entry data for key, or nil. Safe for concurrent use:
// cached containers are shared across restore sessions, so the lazy
// lookup index is built exactly once.
func (c *Container) Find(key metadata.Fingerprint) []byte {
	c.indexOnce.Do(func() {
		c.index = make(map[metadata.Fingerprint]int, len(c.Entries))
		for i := range c.Entries {
			c.index[c.Entries[i].Key] = i
		}
	})
	if i, ok := c.index[key]; ok {
		return c.Entries[i].Data
	}
	return nil
}

// Size returns the serialized size of the container so far.
func (c *Container) Size() int {
	n := headerSize + trailerSize
	for i := range c.Entries {
		n += entryOverhead + len(c.Entries[i].Data)
	}
	return n
}

const (
	containerMagic   = uint32(0xCD57C047)
	containerVersion = byte(1)
	headerSize       = 4 + 1 + 1 + 8 + 4
	entryOverhead    = metadata.FingerprintSize + 4
	trailerSize      = 4
)

// Codec errors.
var (
	ErrCorrupt = errors.New("container: corrupt container")
	ErrFull    = errors.New("container: entry does not fit")
)

// Marshal serializes the container.
func (c *Container) Marshal() []byte {
	out := make([]byte, 0, c.Size())
	out = binary.BigEndian.AppendUint32(out, containerMagic)
	out = append(out, containerVersion, byte(c.Type))
	out = binary.BigEndian.AppendUint64(out, c.UserID)
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.Entries)))
	for i := range c.Entries {
		e := &c.Entries[i]
		out = append(out, e.Key[:]...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.Data)))
		out = append(out, e.Data...)
	}
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out
}

// Unmarshal parses a serialized container.
func Unmarshal(name string, data []byte) (*Container, error) {
	if len(data) < headerSize+trailerSize {
		return nil, fmt.Errorf("%w: too small", ErrCorrupt)
	}
	body := data[:len(data)-trailerSize]
	wantCRC := binary.BigEndian.Uint32(data[len(data)-trailerSize:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	if binary.BigEndian.Uint32(body) != containerMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if body[4] != containerVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, body[4])
	}
	c := &Container{
		Name:   name,
		Type:   Type(body[5]),
		UserID: binary.BigEndian.Uint64(body[6:]),
	}
	count := int(binary.BigEndian.Uint32(body[14:]))
	// Bound the pre-allocation by what the buffer could possibly hold:
	// every entry costs at least its fixed overhead, so a count field
	// larger than this is corrupt and must not size the allocation below.
	if maxCount := (len(body) - headerSize) / entryOverhead; count > maxCount {
		return nil, fmt.Errorf("%w: entry count %d exceeds container size", ErrCorrupt, count)
	}
	p := headerSize
	c.Entries = make([]Entry, 0, count)
	for i := 0; i < count; i++ {
		if p+entryOverhead > len(body) {
			return nil, fmt.Errorf("%w: truncated entry header", ErrCorrupt)
		}
		var e Entry
		copy(e.Key[:], body[p:])
		dlen := int(binary.BigEndian.Uint32(body[p+metadata.FingerprintSize:]))
		p += entryOverhead
		if dlen < 0 || p+dlen > len(body) {
			return nil, fmt.Errorf("%w: truncated entry body", ErrCorrupt)
		}
		e.Data = append([]byte(nil), body[p:p+dlen]...)
		p += dlen
		c.Entries = append(c.Entries, e)
	}
	if p != len(body) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return c, nil
}

// Writer accumulates entries for one (type, user) pair up to the capacity
// cap. It is not safe for concurrent use; the Store serializes access.
type Writer struct {
	name     string
	typ      Type
	userID   uint64
	capacity int
	size     int
	entries  []Entry
}

// NewWriter starts an empty container with the given pre-assigned name.
func NewWriter(name string, typ Type, userID uint64, capacity int) *Writer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Writer{name: name, typ: typ, userID: userID, capacity: capacity, size: headerSize + trailerSize}
}

// Name returns the container's pre-assigned name.
func (w *Writer) Name() string { return w.name }

// Len returns the number of buffered entries.
func (w *Writer) Len() int { return len(w.entries) }

// Fits reports whether an entry of dataLen bytes fits under the cap.
// A container holding no entries accepts one oversized entry — §4.5
// allows a single very large file recipe to exceed the 4MB cap rather
// than splitting it across containers.
func (w *Writer) Fits(dataLen int) bool {
	if len(w.entries) == 0 {
		return true
	}
	return w.size+entryOverhead+dataLen <= w.capacity
}

// Add appends an entry, or returns ErrFull if it does not fit.
func (w *Writer) Add(key metadata.Fingerprint, data []byte) error {
	if !w.Fits(len(data)) {
		return ErrFull
	}
	w.entries = append(w.entries, Entry{Key: key, Data: append([]byte(nil), data...)})
	w.size += entryOverhead + len(data)
	return nil
}

// Full reports whether the container has reached capacity.
func (w *Writer) Full() bool { return w.size >= w.capacity }

// Find returns buffered entry data by key (reads may hit open buffers).
// A key added more than once — a recipe replaced while its container is
// still open — resolves to the latest entry, as Container.Find does.
func (w *Writer) Find(key metadata.Fingerprint) []byte {
	for i := len(w.entries) - 1; i >= 0; i-- {
		if w.entries[i].Key == key {
			return w.entries[i].Data
		}
	}
	return nil
}

// Seal converts the buffered entries into an immutable Container.
func (w *Writer) Seal() *Container {
	return &Container{Name: w.name, Type: w.typ, UserID: w.userID, Entries: w.entries}
}
