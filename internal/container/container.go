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

const (
	containerMagic   = uint32(0xCD57C047)
	containerVersion = byte(1)
	headerSize       = 4 + 1 + 1 + 8 + 4
	countOffset      = headerSize - 4
	entryOverhead    = metadata.FingerprintSize + 4
	trailerSize      = 4
)

// Codec errors.
var (
	ErrCorrupt = errors.New("container: corrupt container")
	ErrFull    = errors.New("container: entry does not fit")
	// ErrNoEntry: the container exists but does not hold the key (a
	// quarantine rewrite dropped it).
	ErrNoEntry = errors.New("container: no such entry")
)

// Unmarshal parses a serialized container. The entries' Data are views
// of data, not copies: the container owns data from here on, and the
// caller must not modify it afterwards.
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
	count := int(binary.BigEndian.Uint32(body[countOffset:]))
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
		p += dlen
		e.Data = body[p-dlen : p : p]
		c.Entries = append(c.Entries, e)
	}
	if p != len(body) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return c, nil
}

// Writer accumulates entries for one (type, user) pair up to the capacity
// cap. It is not safe for concurrent use; the Store serializes access.
//
// What it accumulates is the container's file image itself — header,
// then each entry's key, length and bytes — so an added byte is copied
// once, into the buffer the backend will be handed, and an entry is a
// view of that buffer, not an object of its own. The image starts small
// and reaches the full capacity in a few moves (most containers are
// flushed at a session's end holding little); Seal trims one that did
// not fill. Bytes are never changed once added, so views handed out
// before a move stay valid.
type Writer struct {
	name     string
	typ      Type
	userID   uint64
	capacity int
	image    []byte  // the file image so far; room for the trailer is kept free
	entries  []Entry // views of image
}

// A Writer's image starts with firstImageSize bytes of capacity and
// grows imageGrowth-fold, up to the container's capacity: 16KB, 64KB,
// 256KB, 1MB, 4MB by default. A server holds one open share container
// and one open recipe container per active user, so what an open writer
// holds beyond what it has taken in is bounded (fourfold); the price is
// re-copying a third of a container that fills.
const (
	firstImageSize = 16 << 10
	imageGrowth    = 4
)

// NewWriter starts an empty container with the given pre-assigned name.
func NewWriter(name string, typ Type, userID uint64, capacity int) *Writer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	image := make([]byte, 0, min(capacity, firstImageSize))
	image = binary.BigEndian.AppendUint32(image, containerMagic)
	image = append(image, containerVersion, byte(typ))
	image = binary.BigEndian.AppendUint64(image, userID)
	image = binary.BigEndian.AppendUint32(image, 0) // the entry count, stamped by Seal
	return &Writer{name: name, typ: typ, userID: userID, capacity: capacity, image: image}
}

// Name returns the container's pre-assigned name.
func (w *Writer) Name() string { return w.name }

// Len returns the number of buffered entries.
func (w *Writer) Len() int { return len(w.entries) }

// size is the serialized size of the container so far.
func (w *Writer) size() int { return len(w.image) + trailerSize }

// Fits reports whether an entry of dataLen bytes fits under the cap.
// A container holding no entries accepts one oversized entry — §4.5
// allows a single very large file recipe to exceed the 4MB cap rather
// than splitting it across containers.
func (w *Writer) Fits(dataLen int) bool {
	if len(w.entries) == 0 {
		return true
	}
	return w.size()+entryOverhead+dataLen <= w.capacity
}

// Add appends an entry, or returns ErrFull if it does not fit.
func (w *Writer) Add(key metadata.Fingerprint, data []byte) error {
	if !w.Fits(len(data)) {
		return ErrFull
	}
	if need := w.size() + entryOverhead + len(data); need > cap(w.image) {
		w.move(max(need, min(imageGrowth*cap(w.image), w.capacity)))
	}
	w.image = append(w.image, key[:]...)
	w.image = binary.BigEndian.AppendUint32(w.image, uint32(len(data)))
	w.image = append(w.image, data...)
	end := len(w.image)
	w.entries = append(w.entries, Entry{Key: key, Data: w.image[end-len(data) : end : end]})
	return nil
}

// move puts the image into a buffer of capacity n. The entries move
// into a new slice with it, because a Snapshot taken earlier still reads
// the old one.
func (w *Writer) move(n int) {
	w.image = append(make([]byte, 0, n), w.image...)
	entries := make([]Entry, len(w.entries))
	p := headerSize
	for i, e := range w.entries {
		p += entryOverhead + len(e.Data)
		entries[i] = Entry{Key: e.Key, Data: w.image[p-len(e.Data) : p : p]}
	}
	w.entries = entries
}

// Full reports whether the container has reached capacity.
func (w *Writer) Full() bool { return w.size() >= w.capacity }

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

// Snapshot returns the entries buffered so far as an immutable
// Container; the writer stays open.
func (w *Writer) Snapshot() *Container {
	n := len(w.entries)
	return &Container{Name: w.name, Type: w.typ, UserID: w.userID, Entries: w.entries[:n:n]}
}

// Seal finishes the container: it stamps the entry count and the CRC
// trailer into the image and returns the container together with that
// image, the bytes to persist, which the container's entries are views
// of. The trailer sits in the room Add keeps free, so the image holds
// only until the next Add: a writer whose image was persisted is done,
// one whose persist failed can be added to and sealed again.
func (w *Writer) Seal() (*Container, []byte) {
	// The read cache is charged for what the image uses, not for what it
	// holds: one that did not nearly fill its buffer, as at the end of a
	// session, moves to a buffer of its own size.
	if slack := cap(w.image) - w.size(); slack > cap(w.image)/8 {
		w.move(w.size())
	}
	binary.BigEndian.PutUint32(w.image[countOffset:], uint32(len(w.entries)))
	image := binary.BigEndian.AppendUint32(w.image, crc32.ChecksumIEEE(w.image))
	return w.Snapshot(), image
}
