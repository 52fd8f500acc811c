package cdstore

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
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
	"gf256.NewScalar":                "reference field the kernel tests compare the SIMD kernel against",
	"protocol.EncodeShares":          "reference share-batch encoder the streaming writer is compared against",
	"protocol.DecodePutOK":           "tests decode PutOK replies with it",
	"bench.CombinedChunkEncodeSpeed": "paper experiment the tests run",
	"bench.TestbedUnshaped":          "paper-experiment testbed the tests select",
}

// goPackage is one directory of parsed non-test Go files.
type goPackage struct {
	dir   string // slash-separated, relative to the module root
	name  string
	files []*ast.File
}

// parseModule parses every non-test Go file of the module, by directory.
func parseModule(t *testing.T) (*token.FileSet, map[string]*goPackage) {
	t.Helper()
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
	return fset, pkgs
}

// TestEveryExportHasAProductionUse fails on an exported top-level name
// under internal/ that only tests reach, and on an exemption that no
// longer exempts anything. A use is a bare identifier in the declaring
// package's own non-test files, or pkg.Name in a non-test file that
// imports the declaring package as pkg. Methods and option fields have
// checks of their own below.
func TestEveryExportHasAProductionUse(t *testing.T) {
	fset, pkgs := parseModule(t)
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

// moduleImports maps the local name of each of f's imports from this
// module to the imported package's directory.
func moduleImports(f *ast.File, pkgs map[string]*goPackage) map[string]string {
	imports := map[string]string{}
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
	return imports
}

// markUses records in used every package-level name f refers to, keyed
// by the declaring package's directory.
func markUses(f *ast.File, dir string, pkgs map[string]*goPackage, used map[string]bool) {
	imports := moduleImports(f, pkgs)
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

// methodExemptions are the exported internal methods with no non-test
// use that stay anyway, keyed "pkg.Type.Method", each with the reason.
var methodExemptions = map[string]string{
	"index.Index.LookupShare":  "the cold-path materialised read that server tests use across packages",
	"server.Server.DropCaches": "the cold-read seam for corruption tests in client, cloud and server",
}

// TestEveryExportedMethodHasAProductionUse fails on an exported method of
// a type under internal/ that only tests call, and on a stale exemption.
// A method counts as used when some non-test file of the module selects
// .Name, or when Name is a method of an interface declared in the module
// or in a standard-library package it imports, since a type may carry the
// method to satisfy that interface. Matching is by name alone; a collision
// only makes the check more lenient.
func TestEveryExportedMethodHasAProductionUse(t *testing.T) {
	fset, pkgs := parseModule(t)
	selected := map[string]bool{}
	ifaces := map[string]bool{"Error": true} // the builtin error
	std := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(path, "cdstore") {
					std[path] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					selected[x.Sel.Name] = true
				case *ast.InterfaceType:
					interfaceMethods(x, ifaces)
				}
				return true
			})
		}
	}
	for path := range std {
		stdInterfaceMethods(t, path, ifaces)
	}

	var unused []string
	declared := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil || !fn.Name.IsExported() {
					continue
				}
				name := fn.Name.Name
				key := p.name + "." + receiverType(fn.Recv.List[0].Type) + "." + name
				declared[key] = true
				used := selected[name] || ifaces[name]
				_, exempt := methodExemptions[key]
				switch {
				case used && exempt:
					t.Errorf("%s has a production use now; drop its exemption", key)
				case !used && !exempt:
					unused = append(unused, key+" ("+fset.Position(fn.Pos()).Filename+")")
				}
			}
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported method only tests call; delete it or move it into a _test file", u)
	}
	for key := range methodExemptions {
		if !declared[key] {
			t.Errorf("exemption %s names no declared method; drop it", key)
		}
	}
}

// interfaceMethods adds the names of the methods it declares itself; an
// embedded interface's are added where that interface is declared.
func interfaceMethods(it *ast.InterfaceType, into map[string]bool) {
	for _, m := range it.Methods.List {
		for _, n := range m.Names {
			into[n.Name] = true
		}
	}
}

// stdInterfaceMethods adds the method names of every interface declared
// in the non-test files of the standard-library package path.
func stdInterfaceMethods(t *testing.T, path string, into map[string]bool) {
	t.Helper()
	bp, err := build.Import(path, ".", 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	fset := token.NewFileSet()
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				interfaceMethods(it, into)
			}
			return true
		})
	}
}

// receiverType names a method receiver's base type: T for T, *T, T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// optionExemptions are the fields of internal Options and Config types
// that no non-test code sets and that stay anyway, keyed
// "pkg.Type.Field", each with the reason.
var optionExemptions = map[string]string{
	"cloud.Config.ContainerCapacity": "the 64 KiB containers the cluster test fixtures pin",
	"index.Options.SyncWAL":          "the durable mode the index's write-ahead-log contract is measured and tested in",
	"client.Options.EncodePaths":     "§4.3 path dispersal: a constant either way deletes a paper mechanism or renames every stored path",
}

// TestEveryOptionFieldIsSet fails on a field of an exported internal
// struct type named *Options or *Config that no non-test code sets, and
// on a stale exemption: a setting with one value in use is a constant.
// A field is set by a keyed composite literal of its type (or of an
// elided type, matched by field name), or by an assignment to .Field,
// matched by name. Two assignments do not count: one inside an if
// statement whose condition reads the same expression, which fills in a
// default, and x.Field = y.Field, which copies a value set elsewhere.
func TestEveryOptionFieldIsSet(t *testing.T) {
	fset, pkgs := parseModule(t)
	set := map[string]bool{} // "dir.Type.Field", or "*.Field" when the type is unknown
	for _, p := range pkgs {
		for _, f := range p.files {
			markSets(f, p.dir, pkgs, set)
		}
	}

	var unset []string
	declared := map[string]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !ts.Name.IsExported() ||
					!(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")) {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					for _, n := range field.Names {
						key := p.name + "." + ts.Name.Name + "." + n.Name
						declared[key] = true
						isSet := set[p.dir+"."+ts.Name.Name+"."+n.Name] || set["*."+n.Name]
						_, exempt := optionExemptions[key]
						switch {
						case isSet && exempt:
							t.Errorf("%s is set by production code now; drop its exemption", key)
						case !isSet && !exempt:
							unset = append(unset, key+" ("+fset.Position(n.Pos()).Filename+")")
						}
					}
				}
				return false
			})
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s: no non-test code sets it; make it a constant", u)
	}
	for key := range optionExemptions {
		if !declared[key] {
			t.Errorf("exemption %s names no declared option field; drop it", key)
		}
	}
}

// markSets records in set every struct field f sets, as TestEveryOptionFieldIsSet
// defines setting one.
func markSets(f *ast.File, dir string, pkgs map[string]*goPackage, set map[string]bool) {
	imports := moduleImports(f, pkgs)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch x := n.(type) {
		case *ast.CompositeLit:
			typ := "*"
			switch tx := x.Type.(type) {
			case *ast.Ident:
				typ = dir + "." + tx.Name
			case *ast.SelectorExpr:
				if id, ok := tx.X.(*ast.Ident); ok && imports[id.Name] != "" {
					typ = imports[id.Name] + "." + tx.Sel.Name
				}
			}
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						set[typ+"."+key.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || defaultFill(stack, types.ExprString(sel)) {
					continue
				}
				if len(x.Rhs) == len(x.Lhs) {
					if from, ok := x.Rhs[i].(*ast.SelectorExpr); ok && from.Sel.Name == sel.Sel.Name {
						continue // copies the field from another value: set where that one is
					}
				}
				set["*."+sel.Sel.Name] = true
			}
		}
		return true
	})
}

// defaultFill reports whether an enclosing if statement on stack tests
// expr in its condition: the assignment fills in a default.
func defaultFill(stack []ast.Node, expr string) bool {
	for _, n := range stack {
		is, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(is.Cond, func(c ast.Node) bool {
			if e, ok := c.(ast.Expr); ok && types.ExprString(e) == expr {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
