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

// VersionSize is the size of a recipe's Version.
const VersionSize = 16

// Version names one backup of a file: 8 bytes of big-endian ordering
// counter (the backing-up client's clock in nanoseconds at backup start,
// increasing per client) and 8 random bytes. A backup writes the same
// Version into the recipe of every cloud, so clouds whose recipes carry
// it hold shares of that one backup.
type Version [VersionSize]byte

// Recipe is the complete restore description of one file as stored on one
// cloud (§4.4: "the file recipe ... includes the fingerprint of each
// share (for retrieving the share) and the size of the corresponding
// secret (for decoding the original secret)"), and the Version of the
// backup that wrote it.
type Recipe struct {
	FileMeta
	Version Version
	Entries []RecipeEntry
}

// Codec errors. ErrOldFormat is an ErrBadVersion: the recipe was written
// in format 1, before recipes carried a Version. Such recipes are refused,
// not migrated.
var (
	ErrShortBuffer   = errors.New("metadata: buffer too short")
	ErrBadVersion    = errors.New("metadata: unsupported codec version")
	ErrOldFormat     = fmt.Errorf("%w: recipe format 1 predates recipe versions (format %d) and is not migrated", ErrBadVersion, recipeFormat)
	ErrInconsistency = errors.New("metadata: inconsistent lengths")
)

// Marshal writes recipeFormat first; recipeHeader is its fixed part
// (format, path length, sizes, version, entry count), recipeEntry each
// entry.
const (
	recipeFormat = 2
	recipeHeader = 1 + 4 + 8 + 8 + VersionSize + 4
	recipeEntry  = FingerprintSize + 4 + 4
)

// MaxRecipeEntries is the most entries a recipe whose path is pathLen
// bytes long can hold and still marshal to at most limit bytes.
func MaxRecipeEntries(pathLen, limit int) int {
	return (limit - recipeHeader - pathLen) / recipeEntry
}

// Marshal serializes the recipe.
func (r *Recipe) Marshal() []byte {
	size := recipeHeader + len(r.Path) + len(r.Entries)*recipeEntry
	out := make([]byte, 0, size)
	out = append(out, recipeFormat)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Path)))
	out = append(out, r.Path...)
	out = binary.BigEndian.AppendUint64(out, r.FileSize)
	out = binary.BigEndian.AppendUint64(out, r.NumSecrets)
	out = append(out, r.Version[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Entries)))
	for i := range r.Entries {
		e := &r.Entries[i]
		out = append(out, e.ShareFP[:]...)
		out = binary.BigEndian.AppendUint32(out, e.ShareSize)
		out = binary.BigEndian.AppendUint32(out, e.SecretSize)
	}
	return out
}

// CheckRecipeFormat reads the format byte of a marshalled recipe alone:
// nil for the current format, ErrOldFormat for format 1, ErrBadVersion
// otherwise.
func CheckRecipeFormat(src []byte) error {
	switch {
	case len(src) == 0:
		return ErrShortBuffer
	case src[0] == recipeFormat:
		return nil
	case src[0] == 1:
		return ErrOldFormat
	}
	return ErrBadVersion
}

// UnmarshalRecipe reverses Marshal.
func UnmarshalRecipe(src []byte) (*Recipe, error) {
	if len(src) < 1+4 {
		return nil, ErrShortBuffer
	}
	if err := CheckRecipeFormat(src); err != nil {
		return nil, err
	}
	p := 1
	plen := int(binary.BigEndian.Uint32(src[p:]))
	p += 4
	if plen < 0 || p+plen+8+8+VersionSize+4 > len(src) {
		return nil, ErrShortBuffer
	}
	r := &Recipe{}
	r.Path = string(src[p : p+plen])
	p += plen
	r.FileSize = binary.BigEndian.Uint64(src[p:])
	r.NumSecrets = binary.BigEndian.Uint64(src[p+8:])
	copy(r.Version[:], src[p+16:])
	count := int(binary.BigEndian.Uint32(src[p+16+VersionSize:]))
	p += 20 + VersionSize
	if count < 0 || len(src)-p != count*recipeEntry {
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
		p += recipeEntry
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
