// Package metadata defines the metadata CDStore clients collect during
// uploads and offload to the servers (§4.3): per-file metadata, per-share
// metadata, and file recipes (the complete share-fingerprint list a
// restore needs). All records have compact deterministic binary codecs,
// since recipes are persisted to cloud storage inside recipe containers.
package metadata

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// FingerprintSize is the size of a share or chunk fingerprint (SHA-256).
const FingerprintSize = sha256.Size

// Fingerprint identifies a share or secret by the SHA-256 of its content.
// Fingerprint collisions of distinct contents are cryptographically
// negligible (§3.3, citing Black '06).
type Fingerprint [FingerprintSize]byte

// FingerprintOf hashes data.
func FingerprintOf(data []byte) Fingerprint { return sha256.Sum256(data) }

// String renders the fingerprint in hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// ParseFingerprint parses a hex fingerprint.
func ParseFingerprint(s string) (Fingerprint, error) {
	var f Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != FingerprintSize {
		return f, fmt.Errorf("metadata: bad fingerprint %q", s)
	}
	copy(f[:], b)
	return f, nil
}

// FileMeta is the per-file metadata (§4.3): full pathname, file size,
// number of secrets. The pathname a server sees may be an opaque encoded
// form (sensitive metadata is itself dispersed via secret sharing).
type FileMeta struct {
	Path       string
	FileSize   uint64
	NumSecrets uint64
}

// RecipeEntry describes one secret of a file: the fingerprint of each of
// its shares is derivable per cloud, so the recipe stored at cloud i holds
// the fingerprint of share i plus the secret size for decoding.
type RecipeEntry struct {
	ShareFP    Fingerprint
	ShareSize  uint32
	SecretSize uint32
}

// Recipe is the complete restore description of one file as stored on one
// cloud (§4.4: "the file recipe ... includes the fingerprint of each
// share (for retrieving the share) and the size of the corresponding
// secret (for decoding the original secret)").
type Recipe struct {
	FileMeta
	Entries []RecipeEntry
}

// Codec errors.
var (
	ErrShortBuffer   = errors.New("metadata: buffer too short")
	ErrBadVersion    = errors.New("metadata: unsupported codec version")
	ErrInconsistency = errors.New("metadata: inconsistent lengths")
)

const recipeVersion = 1

// Marshal serializes the recipe.
func (r *Recipe) Marshal() []byte {
	size := 1 + 4 + len(r.Path) + 8 + 8 + 4 + len(r.Entries)*(FingerprintSize+4+4)
	out := make([]byte, 0, size)
	out = append(out, recipeVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Path)))
	out = append(out, r.Path...)
	out = binary.BigEndian.AppendUint64(out, r.FileSize)
	out = binary.BigEndian.AppendUint64(out, r.NumSecrets)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Entries)))
	for i := range r.Entries {
		e := &r.Entries[i]
		out = append(out, e.ShareFP[:]...)
		out = binary.BigEndian.AppendUint32(out, e.ShareSize)
		out = binary.BigEndian.AppendUint32(out, e.SecretSize)
	}
	return out
}

// UnmarshalRecipe reverses Marshal.
func UnmarshalRecipe(src []byte) (*Recipe, error) {
	if len(src) < 1+4 {
		return nil, ErrShortBuffer
	}
	if src[0] != recipeVersion {
		return nil, ErrBadVersion
	}
	p := 1
	plen := int(binary.BigEndian.Uint32(src[p:]))
	p += 4
	if plen < 0 || p+plen+8+8+4 > len(src) {
		return nil, ErrShortBuffer
	}
	r := &Recipe{}
	r.Path = string(src[p : p+plen])
	p += plen
	r.FileSize = binary.BigEndian.Uint64(src[p:])
	r.NumSecrets = binary.BigEndian.Uint64(src[p+8:])
	count := int(binary.BigEndian.Uint32(src[p+16:]))
	p += 20
	const entryWire = FingerprintSize + 4 + 4
	if count < 0 || len(src)-p != count*entryWire {
		return nil, ErrInconsistency
	}
	// The entry count must agree with the header's NumSecrets: consumers
	// index Entries[seq] for seq < NumSecrets (and size allocations by
	// it), so a recipe lying about either field must die here, not panic
	// a restore or balloon a repair.
	if uint64(count) != r.NumSecrets {
		return nil, ErrInconsistency
	}
	r.Entries = make([]RecipeEntry, count)
	for i := 0; i < count; i++ {
		e := &r.Entries[i]
		copy(e.ShareFP[:], src[p:])
		e.ShareSize = binary.BigEndian.Uint32(src[p+FingerprintSize:])
		e.SecretSize = binary.BigEndian.Uint32(src[p+FingerprintSize+4:])
		p += entryWire
	}
	return r, nil
}

// FileKey derives the file-index key for (userID, path): the hash of the
// full pathname and the user identifier (§4.4).
func FileKey(userID uint64, path string) Fingerprint {
	h := sha256.New()
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], userID)
	h.Write(u[:])
	h.Write([]byte(path))
	var f Fingerprint
	h.Sum(f[:0])
	return f
}
