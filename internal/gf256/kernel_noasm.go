//go:build (!amd64 && !arm64) || noasm

package gf256

// Portable build: no assembly kernels. Every Field is scalar (bestAsm is
// asmNone), so the kernel entry points below are
// unreachable; they exist so the architecture-independent call sites
// compile. The `noasm` build tag forces this file on amd64/arm64 too —
// CI builds and tests the portable fallback with it.

type asmLevel uint8

const asmNone asmLevel = 0

// bestAsm is the most capable assembly kernel this build can run: none.
var bestAsm = asmNone

func asmLevels() []asmLevel { return nil }

func asmLevelName(asmLevel) string { return "none" }

func mulAddAsm(asmLevel, *[32]byte, []byte, []byte) int { return 0 }

func mulAsm(asmLevel, *[32]byte, []byte, []byte) int { return 0 }

func xorAsm(asmLevel, []byte, []byte) int { return 0 }
