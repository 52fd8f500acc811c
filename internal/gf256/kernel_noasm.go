//go:build (!amd64 && !arm64) || noasm

package gf256

// Portable build: no assembly kernel. Every Field is scalar (hasAsm is
// false), so the kernel entry points below are unreachable; they exist
// so the architecture-independent call sites compile. The `noasm` build
// tag forces this file on amd64/arm64 too — CI builds and tests the
// portable fallback with it.

// asmName names the assembly kernel: there is none.
const asmName = ""

// hasAsm reports whether this build runs an assembly kernel: never.
const hasAsm = false

func mulAddAsm(*[32]byte, []byte, []byte) int { return 0 }

func mulAsm(*[32]byte, []byte, []byte) int { return 0 }

func xorAsm([]byte, []byte) int { return 0 }
