//go:build (!amd64 && !arm64) || noasm

package gf256

import "testing"

// TestNoasmBuildIsScalarOnly pins the portable build's half of the
// dispatch rule: with no assembly kernel compiled in, New dispatches the
// scalar oracle, which builds no nibble tables.
func TestNoasmBuildIsScalarOnly(t *testing.T) {
	if f := New(); f.Kernel() != "scalar" || f.nib != nil {
		t.Fatalf("New dispatched %q, nib tables present = %v; want scalar without them", f.Kernel(), f.nib != nil)
	}
}
