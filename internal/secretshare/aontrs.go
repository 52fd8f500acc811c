package secretshare

import (
	"fmt"

	"cdstore/internal/aont"
	"cdstore/internal/reedsolomon"
)

// AONTRS is the AONT-RS scheme of Resch and Plank (FAST '11), as deployed
// by Cleversafe: the secret is passed through Rivest's all-or-nothing
// package transform under a fresh random key, and the package is divided
// into k shares and erasure-coded into n with a systematic Reed-Solomon
// code.
//
// Properties (Table 1): r = k-1 (computational), storage blowup
// n/k + (n/k)*Skey/Ssec. Randomness makes shares of identical secrets
// distinct — the deduplication blocker that motivates CAONT-RS.
type AONTRS struct {
	n, k  int
	codec *reedsolomon.Codec
}

// NewAONTRS constructs an (n, k) AONT-RS scheme.
func NewAONTRS(n, k int) (*AONTRS, error) {
	c, err := reedsolomon.New(n, k)
	if err != nil {
		return nil, err
	}
	return &AONTRS{n: n, k: k, codec: c}, nil
}

// Name implements Scheme.
func (a *AONTRS) Name() string { return "AONT-RS" }

// N implements Scheme.
func (a *AONTRS) N() int { return a.n }

// K implements Scheme.
func (a *AONTRS) K() int { return a.k }

// R implements Scheme.
func (a *AONTRS) R() int { return a.k - 1 }

// ShareSize implements Scheme: the Rivest package (padded words + canary +
// key block) split across k shares.
func (a *AONTRS) ShareSize(secretSize int) int {
	pkg := aont.RivestPackageSize(secretSize)
	sz := (pkg + a.k - 1) / a.k
	if sz == 0 {
		sz = 1
	}
	return sz
}

// Split implements Scheme.
func (a *AONTRS) Split(secret []byte) ([][]byte, error) {
	return a.SplitInto(secret, NewArena())
}

// SplitInto implements ArenaScheme: Split drawing its package scratch
// and share buffers from the caller's arena. The key is still fresh
// randomness per call (that is what AONT-RS is).
func (a *AONTRS) SplitInto(secret []byte, ar *Arena) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	key, err := randBytes(aont.KeySize)
	if err != nil {
		return nil, err
	}
	return a.SplitWithKeyInto(secret, key, ar)
}

// SplitWithKeyInto disperses the secret under a caller-supplied 32-byte
// package key instead of a random one: the deterministic core, exposed
// for the convergent instantiation CAONT-RS-Rivest (internal/core
// supplies a content-derived key). A nil arena allocates plainly.
func (a *AONTRS) SplitWithKeyInto(secret, key []byte, ar *Arena) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	if ar == nil {
		ar = NewArena()
	}
	pkgLen := aont.RivestPackageSize(len(secret))
	pkg := ar.Scratch(pkgLen)
	copy(pkg, secret)
	if err := aont.PackageRivestInto(pkg, len(secret), key, &ar.AESScratch); err != nil {
		return nil, err
	}
	shards := ar.Shards(a.n, a.codec.ShardSize(pkgLen))
	if err := a.codec.SplitInto(pkg, shards); err != nil {
		return nil, err
	}
	if err := a.codec.Encode(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// Combine implements Scheme: CombineInto through a fresh arena.
func (a *AONTRS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	return a.CombineInto(shares, secretSize, NewArena())
}

// CombineInto implements ArenaScheme: the reassembled package is staged
// in arena scratch and the secret drawn from the arena's pool. The canary
// embedded by the package transform detects corrupted reconstructions and
// surfaces as ErrCorrupt.
func (a *AONTRS) CombineInto(shares map[int][]byte, secretSize int, ar *Arena) ([]byte, error) {
	secret, _, err := a.CombineWithKeyInto(shares, secretSize, ar)
	return secret, err
}

// CombineWithKeyInto is CombineInto that also returns the recovered
// package key (the convergent variant checks it against the content
// hash): RS-reconstruct straight into contiguous scratch — the data
// shards ARE the package, so no separate join pass — then Rivest unpack
// into a pool-drawn buffer, with the recovered key left in ar.KeyOut (the
// returned key slice aliases it). Steady-state cost per secret is the AES
// key schedule alone. A nil arena allocates plainly.
func (a *AONTRS) CombineWithKeyInto(shares map[int][]byte, secretSize int, ar *Arena) ([]byte, []byte, error) {
	if ar == nil {
		ar = NewArena()
	}
	want := a.ShareSize(secretSize)
	if err := ValidateShareMap(shares, a.n, a.k, want); err != nil {
		return nil, nil, err
	}
	data := ar.ResultBuf(a.dataWordsLen(secretSize))
	if err := a.decodeInto(shares, secretSize, ar.Scratch(a.k*want), data, ar); err != nil {
		ar.Recycle(data)
		return nil, nil, err
	}
	return data[:secretSize], ar.KeyOut[:], nil
}

// dataWordsLen is the length of a package's padded data words: the
// package minus its canary word and key block.
func (a *AONTRS) dataWordsLen(secretSize int) int {
	return aont.RivestPackageSize(secretSize) - aont.WordSize - aont.HashSize
}

// decodeInto is the decode both CombineWithKeyInto and RebuildWithKeyInto
// run on a validated share map: RS-reconstruct the k data shards into
// pkg (k share sizes, contiguous), Rivest-unpack into data
// (dataWordsLen bytes), recovered key into ar.KeyOut. A failed canary or
// padding check surfaces as ErrCorrupt.
func (a *AONTRS) decodeInto(shares map[int][]byte, secretSize int, pkg, data []byte, ar *Arena) error {
	if err := a.codec.ReconstructDataInto(shares, ar.ShardViews(pkg, a.k)); err != nil {
		return err
	}
	pkgLen := aont.RivestPackageSize(secretSize)
	if err := aont.UnpackRivestInto(pkg[:pkgLen], secretSize, data, &ar.KeyOut, &ar.AESScratch); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}

// RebuildInto implements ArenaScheme. The package key is recovered from
// the surviving shares, never redrawn, so the rebuilt share is the one
// the original Split produced and stays consistent with the survivors.
func (a *AONTRS) RebuildInto(shares map[int][]byte, secretSize, idx int, ar *Arena) ([]byte, error) {
	share, _, _, err := a.RebuildWithKeyInto(shares, secretSize, idx, ar)
	return share, err
}

// RebuildWithKeyInto is RebuildInto that also hands back the decoded
// secret and the recovered package key, for the convergent variant's
// key == H(secret) check (which recycles the share if it fails). Both
// alias arena memory (scratch and ar.KeyOut) and die with the arena's
// next use. The whole decode — plaintext included — runs in arena
// scratch; beyond what CombineWithKeyInto verifies, the zero bytes RS
// pads the package with must decode as zero, since unlike a restore a
// rebuild copies them into the share it returns.
func (a *AONTRS) RebuildWithKeyInto(shares map[int][]byte, secretSize, idx int, ar *Arena) (share, secret, key []byte, err error) {
	if ar == nil {
		ar = NewArena()
	}
	want := a.ShareSize(secretSize)
	if err := ValidateShareMap(shares, a.n, a.k, want); err != nil {
		return nil, nil, nil, err
	}
	dataLen := a.dataWordsLen(secretSize)
	buf := ar.Scratch(a.k*want + dataLen)
	pkg, data := buf[:a.k*want], buf[a.k*want:]
	if err := a.decodeInto(shares, secretSize, pkg, data, ar); err != nil {
		return nil, nil, nil, err
	}
	for _, b := range pkg[aont.RivestPackageSize(secretSize):] {
		if b != 0 {
			return nil, nil, nil, ErrCorrupt
		}
	}
	if share, err = RebuildShare(a.codec, pkg, idx, ar); err != nil {
		return nil, nil, nil, err
	}
	return share, data[:secretSize], ar.KeyOut[:], nil
}
