package cdstore

import (
	"go/build"
	"path"
	"slices"
	"sort"
	"strings"
	"testing"
)

// binaryClosures lists, for each deployed binary, every internal package
// it may compile in. The paper's experiments (bench, with the baseline
// schemes), their trace and cost models (dedup, workload, cost) and the
// in-process cluster (cloud) belong to cmd/cdbench, cmd/cdcost, the
// examples and the tests, never to a binary that holds user data.
var binaryClosures = map[string][]string{
	"cmd/cdstore-server": {
		"container", "index", "lsmkv", "metadata", "obs", "protocol", "server", "storage",
	},
	"cmd/cdstore-client": {
		"aont", "chunker", "client", "core", "gf256", "metadata", "obs", "protocol", "reedsolomon", "secretshare",
	},
	"cmd/cdstore-gateway": {
		"gateway", "metadata", "obs", "protocol",
	},
}

// TestBinariesImportOnlyTheirClosure fails when an internal package enters
// a binary's closure that its list above does not name, and when a listed
// package has left it (the list must say what the binary carries). The
// closure is that of the non-test files the current platform builds,
// followed through imports of this module's internal packages.
func TestBinariesImportOnlyTheirClosure(t *testing.T) {
	const internal = "cdstore/internal/"
	for bin, allowed := range binaryClosures {
		got := map[string]bool{}
		queue := []string{bin}
		for len(queue) > 0 {
			dir := queue[0]
			queue = queue[1:]
			pkg, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			for _, imp := range pkg.Imports {
				name, ok := strings.CutPrefix(imp, internal)
				if !ok || got[name] {
					continue
				}
				got[name] = true
				queue = append(queue, path.Join("internal", name))
			}
		}
		var entered []string
		for name := range got {
			if !slices.Contains(allowed, name) {
				entered = append(entered, name)
			}
		}
		sort.Strings(entered)
		for _, name := range entered {
			t.Errorf("%s now compiles internal/%s; keep it out, or list it here if the binary needs it", bin, name)
		}
		for _, name := range allowed {
			if !got[name] {
				t.Errorf("%s no longer compiles internal/%s; drop it from its list", bin, name)
			}
		}
	}
}
