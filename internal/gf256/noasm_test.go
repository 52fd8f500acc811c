//go:build (!amd64 && !arm64) || noasm

package gf256

import (
	"reflect"
	"testing"
)

// TestNoasmBuildIsScalarOnly pins the portable build's half of the
// dispatch rule: with no assembly kernel compiled in, the scalar oracle
// is the only kernel there is and the one New dispatches.
func TestNoasmBuildIsScalarOnly(t *testing.T) {
	if got := Kernels(); !reflect.DeepEqual(got, []string{"scalar"}) {
		t.Fatalf("Kernels() = %v, want [scalar]", got)
	}
	if got := New().Kernel(); got != "scalar" {
		t.Fatalf("New dispatched %q, want scalar", got)
	}
}
