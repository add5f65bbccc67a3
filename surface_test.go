package dsmpm2_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// stdInterfaceMethods are method names a standard-library interface calls
// (fmt.Stringer, error, json.Marshaler/Unmarshaler): such a method has its
// caller outside the repo, so it never needs one inside.
var stdInterfaceMethods = []string{"String", "Error", "MarshalJSON", "UnmarshalJSON"}

// exportsWithoutCallers is the accept-list: exported functions in internal/
// that no non-test file uses, each kept for the reason given.
var exportsWithoutCallers = map[string]string{
	"sim.FaultPlan.Loss":             "facade API: dsmpm2.FaultPlan is this type, and users build plans with it",
	"sim.FaultPlan.Save":             "facade API: the counterpart of dsmpm2.LoadFaultPlan for users writing plan files",
	"trace.Log.WriteJSON":            "facade API: System.Trace hands out the log; TestTraceSpanLogPinned pins its output",
	"madeleine.LinkMatrix.SetDuplex": "facade API: dsmpm2.LinkMatrix is this type, built with SetLink/SetDuplex",
	"sim.ShardedEngine.SetSyncHook":  "kept until the sharded engine's cross-shard sync path is folded into the kernel",
	"bench.AdaptJacobi64":            "BenchmarkAdaptJacobi64, CI's adapt smoke, runs it from the root package",
	"sim.lazySource.Seed":            "rand.Source requires it: lazySource is the fault layer's rand.Rand source",
	"freelist.List.Len":              "the record-pool tests of core, pm2 and sim read pool sizes through it, and a method cannot move into three packages' tests",
	"sim.Proc.Body":                  "pm2's handler-recycling test checks through it that a recycled handler's proc leads back to it",
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// goList lists the packages of the module at dir and their dependencies,
// dependencies first.
func goList(t *testing.T, dir string) []listedPackage {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// moduleImporter resolves the repo's packages to the ones the scan checked,
// and the standard library's from source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	return m.std.ImportFrom(path, dir, mode)
}

// exportedDecl is one exported top-level function or method declaration.
type exportedDecl struct {
	key string // pkg.Func or pkg.Recv.Method
	fn  *types.Func
	pos token.Position
}

// TestInternalExportsHaveCallers keeps internal/'s surface minimal: every
// exported function or method declared under internal/ must be used by some
// non-test Go file of the repo (benchmark/ included, as it compiles against
// internal/). Uses are resolved with go/types over the non-test files of both
// modules, so a method counts as used where its own type's method is named,
// or where a method of an interface its type implements is, and not where a
// method of another type shares its name. A helper only tests call belongs
// in a _test.go file; methods the standard library calls through an
// interface are exempt by name; anything else without a caller must be on
// exportsWithoutCallers with its reason, or go.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	imp := &moduleImporter{checked: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var decls []exportedDecl
	var named []*types.Named
	for _, p := range append(goList(t, "."), goList(t, "benchmark")...) {
		if p.Standard || imp.checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = pkg
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, n)
				}
			}
		}
		if !strings.HasPrefix(p.ImportPath, "dsmpm2/internal/") {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := f.Name.Name + "." + fd.Name.Name
				if fd.Recv != nil {
					if slices.Contains(stdInterfaceMethods, fd.Name.Name) {
						continue
					}
					key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, exportedDecl{key, info.Defs[fd.Name].(*types.Func), fset.Position(fd.Name.Pos())})
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}

	// A use of a concrete method marks it; a use of an interface method
	// marks the method every implementing type of the repo reaches it by.
	used := map[*types.Func]bool{}
	var viaInterface []*types.Func
	for _, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if sig := fn.Signature(); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
			if !used[fn] {
				viaInterface = append(viaInterface, fn)
			}
		}
		used[fn] = true
	}
	for _, m := range viaInterface {
		iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			if types.IsInterface(n) {
				continue
			}
			ptr := types.NewPointer(n)
			if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
				continue
			}
			if sel := types.NewMethodSet(ptr).Lookup(m.Pkg(), m.Name()); sel != nil {
				used[sel.Obj().(*types.Func).Origin()] = true
			}
		}
	}

	accepted := map[string]bool{}
	for _, d := range decls {
		if used[d.fn] {
			continue
		}
		if _, ok := exportsWithoutCallers[d.key]; ok {
			accepted[d.key] = true
			continue
		}
		t.Errorf("%s: %s is exported but no non-test file uses it: delete it, move it into a _test.go file, or accept it with a reason", d.pos, d.key)
	}
	for key := range exportsWithoutCallers {
		if !accepted[key] {
			t.Errorf("accept-list entry %s is stale: it has a caller now, or is gone", key)
		}
	}
	if len(exportsWithoutCallers) > 10 {
		t.Errorf("the accept-list has %d entries, over its cap of 10", len(exportsWithoutCallers))
	}
}

// recvType names a method receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
