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
	return a.SplitInto(secret, nil)
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
	return a.splitWithKey(secret, key, ar)
}

// splitWithKey is the deterministic core shared with CAONT-RS-Rivest
// (internal/core supplies a content-derived key instead of a random one).
// A nil arena falls back to plain allocation.
func (a *AONTRS) splitWithKey(secret, key []byte, ar *Arena) ([][]byte, error) {
	pkgLen := aont.RivestPackageSize(len(secret))
	var pkg []byte
	var scratch *aont.Scratch
	if ar != nil {
		pkg = ar.Scratch(pkgLen)
		scratch = &ar.AESScratch
	} else {
		pkg = make([]byte, pkgLen)
	}
	copy(pkg, secret)
	if err := aont.PackageRivestInto(pkg, len(secret), key, scratch); err != nil {
		return nil, err
	}
	var shards [][]byte
	if ar != nil {
		shards = ar.Shards(a.n, a.codec.ShardSize(pkgLen))
	} else {
		shards = make([][]byte, a.n)
		for i := range shards {
			shards[i] = make([]byte, a.codec.ShardSize(pkgLen))
		}
	}
	if err := a.codec.SplitInto(pkg, shards); err != nil {
		return nil, err
	}
	if err := a.codec.Encode(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// SplitWithKey disperses the secret using a caller-supplied 32-byte
// package key instead of a random one. Exposed for the convergent
// dispersal instantiation CAONT-RS-Rivest.
func (a *AONTRS) SplitWithKey(secret, key []byte) ([][]byte, error) {
	return a.SplitWithKeyInto(secret, key, nil)
}

// SplitWithKeyInto is SplitWithKey through an arena (nil behaves like
// SplitWithKey).
func (a *AONTRS) SplitWithKeyInto(secret, key []byte, ar *Arena) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	return a.splitWithKey(secret, key, ar)
}

// Combine implements Scheme. The canary embedded by the package transform
// detects corrupted reconstructions and surfaces as ErrCorrupt.
func (a *AONTRS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	secret, _, err := a.CombineWithKey(shares, secretSize)
	return secret, err
}

// CombineInto implements ArenaScheme: Combine with the reassembled
// package staged in arena scratch and the secret drawn from the arena's
// pool. A nil arena behaves like Combine.
func (a *AONTRS) CombineInto(shares map[int][]byte, secretSize int, ar *Arena) ([]byte, error) {
	secret, _, err := a.CombineWithKeyInto(shares, secretSize, ar)
	return secret, err
}

// CombineWithKeyInto is CombineWithKey through an arena (nil behaves like
// CombineWithKey): RS-reconstruct straight into contiguous scratch — the
// data shards ARE the package, so no separate Join pass — then Rivest
// unpack into a pool-drawn buffer, with the recovered key left in
// ar.KeyOut (the returned key slice aliases it). Steady-state cost per
// secret is the AES key schedule alone.
func (a *AONTRS) CombineWithKeyInto(shares map[int][]byte, secretSize int, ar *Arena) ([]byte, []byte, error) {
	if ar == nil {
		return a.CombineWithKey(shares, secretSize)
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

// RebuildInto implements Rebuilder. The package key is recovered from
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

// CombineWithKey reconstructs the secret and also returns the recovered
// package key (the convergent variant checks it against the content hash).
func (a *AONTRS) CombineWithKey(shares map[int][]byte, secretSize int) ([]byte, []byte, error) {
	idxs, size, err := checkShares(shares, a.n, a.k)
	if err != nil {
		return nil, nil, err
	}
	if size != a.ShareSize(secretSize) {
		return nil, nil, fmt.Errorf("%w: share size %d inconsistent with secret size %d", ErrShareSize, size, secretSize)
	}
	have := make(map[int][]byte, a.k)
	for _, i := range idxs {
		have[i] = shares[i]
	}
	data, err := a.codec.ReconstructData(have)
	if err != nil {
		return nil, nil, err
	}
	pkg, err := a.codec.Join(data, aont.RivestPackageSize(secretSize))
	if err != nil {
		return nil, nil, err
	}
	secret, key, err := aont.UnpackRivest(pkg, secretSize)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return secret, key, nil
}
