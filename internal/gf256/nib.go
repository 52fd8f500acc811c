package gf256

// nibTabs holds the split-nibble product tables the SIMD kernels
// consume: for each coefficient c, 32 bytes — nib[c][x] = c*x for
// x in 0..15 (low nibble) and nib[c][16+h] = c*(h<<4) for h in 0..15
// (high nibble). Multiplication by a constant is XOR-linear, so
// c*x = nib[c][x&0x0f] ^ nib[c][16+(x>>4)], and a 16-entry table fits
// exactly one vector shuffle register.
//
// The whole set is 256 coefficients x 32 bytes = 8KB, built eagerly at
// Field construction; it stays resident in L1 for the duration of an
// encode.
type nibTabs [Order][32]byte

// buildNib populates f.nib from the full multiplication table. Called
// from newField only when the assembly kernel is selected.
func (f *Field) buildNib() {
	nib := new(nibTabs)
	for c := 0; c < Order; c++ {
		row := &f.mul[c]
		for x := 0; x < 16; x++ {
			nib[c][x] = row[x]
			nib[c][16+x] = row[x<<4]
		}
	}
	f.nib = nib
}
