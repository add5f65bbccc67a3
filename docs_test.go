package dsmpm2_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// dsmbenchSource parses cmd/dsmbench's main.go; package main exports
// nothing, so the docs test reads what the command accepts out of its source.
func dsmbenchSource(t *testing.T) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/dsmbench/main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// stringLit is the value of a string literal expression, or false.
func stringLit(t *testing.T, e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		t.Fatal(err)
	}
	return s, true
}

// dsmbenchExperiments reads the valid -exp set: the `name` fields of the
// `experiments` table, plus the `allExps` constant.
func dsmbenchExperiments(t *testing.T, f *ast.File) []string {
	t.Helper()
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
			return true
		}
		switch vs.Names[0].Name {
		case "allExps":
			if s, ok := stringLit(t, vs.Values[0]); ok {
				out = append(out, s)
			}
		case "experiments":
			for _, e := range vs.Values[0].(*ast.CompositeLit).Elts {
				for _, kv := range e.(*ast.CompositeLit).Elts {
					kv := kv.(*ast.KeyValueExpr)
					if kv.Key.(*ast.Ident).Name != "name" {
						continue
					}
					if s, ok := stringLit(t, kv.Value); ok {
						out = append(out, s)
					}
				}
			}
		}
		return false
	})
	if len(out) < 2 || !slices.Contains(out, "all") {
		t.Fatalf("no `experiments` table and `allExps` found in cmd/dsmbench/main.go (found %v)", out)
	}
	return out
}

// dsmbenchFlags reads the flag names the command's FlagSet defines: the
// first string argument of every fs.<Kind>(...) / fs.<Kind>Var(...) call.
func dsmbenchFlags(t *testing.T, f *ast.File) []string {
	t.Helper()
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "fs" {
			return true
		}
		for _, arg := range call.Args {
			if name, ok := stringLit(t, arg); ok {
				out = append(out, name)
				break
			}
		}
		return true
	})
	if !slices.Contains(out, "exp") {
		t.Fatalf("no -exp flag found among cmd/dsmbench/main.go's FlagSet calls (found %v)", out)
	}
	return out
}

// TestDocsMatchTree holds the documents to the tree: every internal/, cmd/
// and examples/ path README.md, doc.go and DESIGN.md name exists; every
// `-exp <name>` README.md, EXPERIMENTS.md and the CI workflow write is one
// dsmbench accepts; and every -flag their dsmbench command lines pass is one
// its FlagSet defines.
func TestDocsMatchTree(t *testing.T) {
	read := func(name string) string {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	docs := map[string]string{}
	for _, name := range []string{"README.md", "doc.go", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"} {
		docs[name] = read(name)
	}

	pathRE := regexp.MustCompile(`\b(?:internal|cmd|examples)/[\w./-]*`)
	for _, name := range []string{"README.md", "doc.go", "DESIGN.md"} {
		for _, p := range pathRE.FindAllString(docs[name], -1) {
			p = strings.TrimRight(strings.TrimSuffix(p, "/..."), "./-")
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which is not in the tree", name, p)
			}
		}
	}

	src := dsmbenchSource(t)
	valid := dsmbenchExperiments(t, src)
	flags := dsmbenchFlags(t, src)
	expRE := regexp.MustCompile(`-exp ([a-z0-9]+)`)
	// A dsmbench command runs from the word to the end of its code span,
	// comment, pipe or redirection; its flags are the -words inside.
	cmdRE := regexp.MustCompile("dsmbench([^`#|;&>)]*)")
	flagRE := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9]*)`)
	for _, name := range []string{"README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml"} {
		for _, m := range expRE.FindAllStringSubmatch(docs[name], -1) {
			if !slices.Contains(valid, m[1]) {
				t.Errorf("%s writes -exp %s, which dsmbench does not accept (valid: %s)",
					name, m[1], strings.Join(valid, ", "))
			}
		}
		for i, line := range strings.Split(docs[name], "\n") {
			for _, cmd := range cmdRE.FindAllStringSubmatch(line, -1) {
				for _, f := range flagRE.FindAllStringSubmatch(cmd[1], -1) {
					if !slices.Contains(flags, f[1]) {
						t.Errorf("%s:%d passes -%s to dsmbench, which defines no such flag", name, i+1, f[1])
					}
				}
			}
		}
	}
}

// designLineBudget is DESIGN.md's line count, which may only go down: a change
// that grows the document has to raise this number on purpose, in the same
// diff, where a reviewer sees it.
const designLineBudget = 1297

// TestDesignStaysWithinBudget holds DESIGN.md to designLineBudget lines.
func TestDesignStaysWithinBudget(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n > designLineBudget {
		t.Fatalf("DESIGN.md has %d lines, over its budget of %d: shorten it, or raise designLineBudget deliberately", n, designLineBudget)
	}
}

// panicBudget is the number of calls to the builtin panic in the module's
// non-test Go files outside benchmark/, which may only go down: a new panic
// has to raise this number on purpose, in the same diff, where a reviewer
// sees it — or be an error instead.
const panicBudget = 91

// TestPanicsStayWithinBudget holds the module's panic calls to panicBudget.
func TestPanicsStayWithinBudget(t *testing.T) {
	fset := token.NewFileSet()
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
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
		ast.Inspect(f, func(node ast.Node) bool {
			if call, ok := node.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					n++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n > panicBudget {
		t.Fatalf("%d panic calls in non-test files outside benchmark/, over the budget of %d: return an error instead, or raise panicBudget deliberately", n, panicBudget)
	}
}
