package dsmpm2_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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
// that no non-test file names, each kept for the reason given.
var exportsWithoutCallers = map[string]string{
	"sim.FaultPlan.Loss":             "facade API: dsmpm2.FaultPlan is this type, and users build plans with it",
	"sim.FaultPlan.Save":             "facade API: the counterpart of dsmpm2.LoadFaultPlan for users writing plan files",
	"trace.Log.WriteJSON":            "facade API: System.Trace hands out the log; TestTraceSpanLogPinned pins its output",
	"madeleine.LinkMatrix.SetDuplex": "facade API: dsmpm2.LinkMatrix is this type, built with SetLink/SetDuplex",
	"sim.ShardedEngine.SetSyncHook":  "kept until the sharded engine's cross-shard sync path is folded into the kernel",
	"bench.AdaptJacobi64":            "BenchmarkAdaptJacobi64, CI's adapt smoke, runs it from the root package",
}

// exportedDecl is one exported top-level function or method declaration.
type exportedDecl struct {
	key string // pkg.Func or pkg.Recv.Method
	pos token.Position
}

// TestInternalExportsHaveCallers keeps internal/'s surface minimal: every
// exported function or method declared under internal/ must be named as an
// identifier by some non-test Go file of the repo (benchmark/ included, as it
// compiles against internal/) other than by its own declaration. A helper
// only tests call belongs in a _test.go file; methods the standard library
// calls through an interface are exempt by name; anything else without a
// caller must be on exportsWithoutCallers with its reason, or go.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []exportedDecl
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !fd.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				if slices.Contains(stdInterfaceMethods, fd.Name.Name) {
					continue
				}
				key = f.Name.Name + "." + recvType(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, exportedDecl{key, fset.Position(fd.Name.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations under internal/")
	}
	accepted := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if uses[name] > 0 {
			continue
		}
		if _, ok := exportsWithoutCallers[d.key]; ok {
			accepted[d.key] = true
			continue
		}
		t.Errorf("%s: %s is exported but no non-test file names it: delete it, move it into a _test.go file, or accept it with a reason", d.pos, d.key)
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
