package cdstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportExemptions are the exported internal names with no non-test use
// that stay anyway, each with the reason.
var exportExemptions = map[string]string{
	"storage.Corrupt":                "fault seam the server, client and cluster tests damage stored objects with",
	"storage.FlipBit":                "fault seam: the silent-corruption transform Corrupt applies",
	"container.TamperEntries":        "fault seam: rewrites chosen entries of a stored container",
	"gf256.NewScalar":                "reference field the kernel tests compare every kernel against",
	"gf256.NewWithKernel":            "pins one kernel so the differential tests reach each of them",
	"protocol.EncodeShares":          "reference share-batch encoder the streaming writer is compared against",
	"protocol.DecodePutOK":           "tests decode PutOK replies with it",
	"race.Enabled":                   "build-tag constant the allocation tests read",
	"bench.CombinedChunkEncodeSpeed": "paper experiment the tests run",
	"bench.TestbedUnshaped":          "paper-experiment testbed the tests select",
}

// goPackage is one directory of parsed non-test Go files.
type goPackage struct {
	dir   string // slash-separated, relative to the module root
	name  string
	files []*ast.File
}

// TestEveryExportHasAProductionUse fails on an exported top-level name
// under internal/ that only tests reach, and on an exemption that no
// longer exempts anything. A use is a bare identifier in the declaring
// package's own non-test files, or pkg.Name in a non-test file that
// imports the declaring package as pkg. Methods are not checked: whether
// one implements an interface needs type information.
func TestEveryExportHasAProductionUse(t *testing.T) {
	fset := token.NewFileSet()
	pkgs := map[string]*goPackage{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		p := pkgs[dir]
		if p == nil {
			p = &goPackage{dir: dir, name: f.Name.Name}
			pkgs[dir] = p
		}
		p.files = append(p.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{} // "dir.Name"
	for _, p := range pkgs {
		for _, f := range p.files {
			markUses(f, p.dir, pkgs, used)
		}
	}

	var unused []string
	declared := map[string]bool{} // "pkgname.Name"
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, name := range exportedDecls(f) {
				key := p.name + "." + name
				declared[key] = true
				_, exempt := exportExemptions[key]
				switch {
				case used[p.dir+"."+name] && exempt:
					t.Errorf("%s has a production use now; drop its exemption", key)
				case !used[p.dir+"."+name] && !exempt:
					unused = append(unused, key+" ("+fset.Position(f.Package).Filename+")")
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported but only tests use it; delete it or move it into a _test file", u)
	}
	for key := range exportExemptions {
		if !declared[key] {
			t.Errorf("exemption %s names nothing declared; drop it", key)
		}
	}
}

// exportedDecls lists f's exported top-level funcs, types, vars and consts.
func exportedDecls(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// markUses records in used every package-level name f refers to, keyed
// by the declaring package's directory.
func markUses(f *ast.File, dir string, pkgs map[string]*goPackage, used map[string]bool) {
	imports := map[string]string{} // local name -> directory
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		rel, ok := strings.CutPrefix(path, "cdstore/")
		if !ok || pkgs[rel] == nil {
			continue
		}
		local := pkgs[rel].name
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = rel
	}
	// Identifiers that name something rather than refer to it.
	notRefs := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			notRefs[x.Sel] = true
			if id, ok := x.X.(*ast.Ident); ok && id.Obj == nil {
				if rel, ok := imports[id.Name]; ok {
					used[rel+"."+x.Sel.Name] = true
				}
			}
		case *ast.FuncDecl:
			notRefs[x.Name] = true
		case *ast.Field:
			for _, n := range x.Names {
				notRefs[n] = true
			}
		case *ast.TypeSpec:
			notRefs[x.Name] = true
		case *ast.ValueSpec:
			for _, n := range x.Names {
				notRefs[n] = true
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || notRefs[id] {
			return true
		}
		// Unresolved identifiers refer to another file's package-level
		// declarations; resolved ones count only if they resolve to this
		// file's own top level (not a local that shadows it).
		if id.Obj == nil || f.Scope.Lookup(id.Name) == id.Obj {
			used[dir+"."+id.Name] = true
		}
		return true
	})
}
