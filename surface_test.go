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
	"sim.lazySource.Seed":            "rand.Source requires it: lazySource is the fault layer's rand.Rand source",
	"freelist.List.Len":              "the record-pool tests of core, pm2 and sim read pool sizes through it, and a method cannot move into three packages' tests",
	"sim.Proc.Body":                  "pm2's handler-recycling test checks through it that a recycled handler's proc leads back to it",
	"sim.Engine.Schedule":            "the tests of sim, pm2, core and the facade schedule closures at chosen instants through it, and a method cannot move into four packages' tests; the kernel's own records are typed (ScheduleCall)",
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

// checkedPackage is one package of the repo, parsed and type-checked.
type checkedPackage struct {
	path  string
	pkg   *types.Package
	files []*ast.File
}

// repoTypes is the non-test Go of both modules, type-checked by the first
// scan of this file for every later one: the packages dependencies first,
// with one Info over all of them.
var repoTypes struct {
	fset *token.FileSet
	info *types.Info
	pkgs []checkedPackage
}

// typeCheckRepo parses and type-checks the non-test files of both modules
// (benchmark/ included, as it compiles against the root module), or returns
// what an earlier call checked.
func typeCheckRepo(t *testing.T) ([]checkedPackage, *types.Info) {
	t.Helper()
	r := &repoTypes
	if r.pkgs != nil {
		return r.pkgs, r.info
	}
	fset := token.NewFileSet()
	imp := &moduleImporter{checked: map[string]*types.Package{}, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	var pkgs []checkedPackage
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
		pkgs = append(pkgs, checkedPackage{p.ImportPath, pkg, files})
	}
	r.fset, r.info, r.pkgs = fset, info, pkgs
	return pkgs, info
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
	pkgs, info := typeCheckRepo(t)
	var decls []exportedDecl
	var named []*types.Named
	for _, p := range pkgs {
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams() == nil {
					named = append(named, n)
				}
			}
		}
		if !strings.HasPrefix(p.path, "dsmpm2/internal/") {
			continue
		}
		for _, f := range p.files {
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
				decls = append(decls, exportedDecl{key, info.Defs[fd.Name].(*types.Func), repoTypes.fset.Position(fd.Name.Pos())})
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

// settingsWithoutWriters is the accept-list of TestSettingsHaveWriters:
// settings that no non-test file outside their package writes, each kept for
// the reason given.
var settingsWithoutWriters = map[string]string{
	"jacobi.Config.Trace":             "TestTraceSpanLogPinned pins a traced jacobi run",
	"kvstore.Config.Deadline":         "TestDeadlineDrops checks drops on an all-get overload, and benchmark/ reads Result.Dropped",
	"kvstore.Config.MeanInterarrival": "TestDeadlineDrops overloads the servers through it",
	"kvstore.Config.ReadFraction":     "TestDeadlineDrops makes every request a get through it",
}

// TestSettingsHaveWriters keeps every setting one that a caller sets: each
// exported field of an exported struct type named *Config or *Options, in
// either module, must be written by some non-test file outside its own
// package. A write is a composite-literal key, an assignment or increment,
// or taking the field's address (as the tuner's grid cells do). A setting
// only one value ever reaches is a constant of its package; anything else
// without a writer must be on settingsWithoutWriters with its reason, or go.
func TestSettingsHaveWriters(t *testing.T) {
	pkgs, info := typeCheckRepo(t)
	// written holds the fields a non-test file outside their package writes.
	written := map[*types.Var]bool{}
	write := func(p *types.Package, id *ast.Ident) {
		if f, ok := info.Uses[id].(*types.Var); ok && f.IsField() && f.Pkg() != p {
			written[f.Origin()] = true
		}
	}
	writeSel := func(p *types.Package, e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			write(p, sel.Sel)
		}
	}
	for _, p := range pkgs {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := x.Key.(*ast.Ident); ok {
						write(p.pkg, id)
					}
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						writeSel(p.pkg, lhs)
					}
				case *ast.IncDecStmt:
					writeSel(p.pkg, x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						writeSel(p.pkg, x.X)
					}
				}
				return true
			})
		}
	}

	accepted := map[string]bool{}
	settings := 0
	for _, p := range pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() {
					continue
				}
				settings++
				if written[f] {
					continue
				}
				key := p.pkg.Name() + "." + name + "." + f.Name()
				if _, ok := settingsWithoutWriters[key]; ok {
					accepted[key] = true
					continue
				}
				t.Errorf("%s: setting %s has no writer outside its package: make it a constant, or accept it with a reason", repoTypes.fset.Position(f.Pos()), key)
			}
		}
	}
	if settings == 0 {
		t.Fatal("found no settings")
	}
	for key := range settingsWithoutWriters {
		if !accepted[key] {
			t.Errorf("accept-list entry %s is stale: it has a writer now, or is gone", key)
		}
	}
	if len(settingsWithoutWriters) > 5 {
		t.Errorf("the accept-list has %d entries, over its cap of 5", len(settingsWithoutWriters))
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
