package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"cdstore/internal/aont"
	"cdstore/internal/secretshare"
)

// joinedCombine is the reference decode CombineInto's segmented unpack is
// held to: the k data shards joined into one contiguous package
// (ReconstructDataInto), the contiguous unpack, then the H(X) and
// zero-padding checks.
func joinedCombine(c *CAONTRS, shares map[int][]byte, secretSize int) ([]byte, error) {
	p := c.paddedSecretSize(secretSize)
	pkg := make([]byte, p+HashSize)
	size := len(pkg) / c.k
	out := make([][]byte, c.k)
	for j := range out {
		out[j] = pkg[j*size : (j+1)*size]
	}
	if err := c.codec.ReconstructDataInto(shares, out); err != nil {
		return nil, err
	}
	padded := make([]byte, p)
	var key, h [HashSize]byte
	if err := aont.UnpackOAEPInto(pkg, padded, &key); err != nil {
		return nil, err
	}
	c.hasher.sumInto(padded, &h)
	if h != key || slices.ContainsFunc(padded[secretSize:], func(b byte) bool { return b != 0 }) {
		return nil, secretshare.ErrCorrupt
	}
	return padded[:secretSize], nil
}

// FuzzCombineIntoMatchesJoined cross-checks CombineInto — data shares
// read where they lie, only missing data shards computed, the tail read
// across shards — against joinedCombine, for secrets of 1 B to 64 KiB
// (shares under 32 bytes put the tail across several shards), over every
// k-subset of the shares, salted and unsalted, with and without a
// flipped byte: both decode the secret, or both refuse it with
// ErrCorrupt, and a flipped byte in a share the subset reads is refused.
func FuzzCombineIntoMatchesJoined(f *testing.F) {
	f.Add([]byte{0}, uint16(0), false, uint32(0), uint8(0))
	f.Add([]byte("convergent dispersal"), uint16(20), true, uint32(5), uint8(1))
	f.Add([]byte{1, 2, 3}, uint16(60), false, uint32(77), uint8(0x80))
	f.Add(bytes.Repeat([]byte{0x5A}, 64), uint16(4095), true, uint32(1400), uint8(0))
	f.Add([]byte{9}, uint16(65535), false, uint32(99999), uint8(0xFF))
	f.Fuzz(func(t *testing.T, seed []byte, size uint16, salted bool, flipAt uint32, flipMask uint8) {
		if len(seed) == 0 {
			t.Skip()
		}
		secret := make([]byte, int(size)+1) // 1 B to 64 KiB
		for i := range secret {
			secret[i] = seed[i%len(seed)] ^ byte(i*131>>3)
		}
		var salt []byte
		if salted {
			salt = []byte("org")
		}
		s, err := NewCAONTRSWithSalt(4, 3, salt)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		shareSize := len(shares[0])
		flipped := -1
		if flipMask != 0 {
			pos := int(flipAt % uint32(len(shares)*shareSize))
			flipped = pos / shareSize
			shares[flipped][pos%shareSize] ^= flipMask
		}
		arena := secretshare.NewArenaWithPool(&secretshare.SharePool{})
		kSubsets(shares, s.K(), func(mask uint, have map[int][]byte) {
			want, werr := joinedCombine(s, have, len(secret))
			got, gerr := s.CombineInto(have, len(secret), arena)
			if (werr == nil) != (gerr == nil) || werr != nil && !errors.Is(gerr, werr) || !bytes.Equal(got, want) {
				t.Fatalf("subset %04b, %d B, salted %v: CombineInto (%v) differs from the joined reference (%v)",
					mask, len(secret), salted, gerr, werr)
			}
			read := flipped >= 0 && mask&(1<<flipped) != 0
			switch {
			case read && !errors.Is(gerr, secretshare.ErrCorrupt):
				t.Fatalf("subset %04b: a flipped byte in share %d decoded (%v)", mask, flipped, gerr)
			case !read && (gerr != nil || !bytes.Equal(got, secret)):
				t.Fatalf("subset %04b: intact shares did not decode the secret (%v)", mask, gerr)
			}
			if gerr == nil {
				arena.Recycle(got)
			}
		})
	})
}
