package dsmpm2_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
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

// dsmbenchExperiments reads the valid -exp set: the string literals of the
// `experiments` variable.
func dsmbenchExperiments(t *testing.T, f *ast.File) []string {
	t.Helper()
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "experiments" || len(vs.Values) != 1 {
			return true
		}
		for _, e := range vs.Values[0].(*ast.CompositeLit).Elts {
			s, err := strconv.Unquote(e.(*ast.BasicLit).Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return false
	})
	if len(out) == 0 {
		t.Fatal("no `experiments` list found in cmd/dsmbench/main.go")
	}
	return out
}

// dsmbenchFlags reads the flag names the command's FlagSet defines: the
// first argument of every fs.<Kind>("name", ...) call.
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
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, name)
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
// dsmbench accepts; every -flag their dsmbench command lines pass is one its
// FlagSet defines; and no line of any of them passes -shards to an
// experiment other than kernel (the only one that takes it).
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

	for name, text := range docs {
		for i, line := range strings.Split(text, "\n") {
			if !strings.Contains(line, "-shards") {
				continue
			}
			for _, m := range expRE.FindAllStringSubmatch(line, -1) {
				if m[1] != "kernel" {
					t.Errorf("%s:%d passes -shards to -exp %s; only the kernel experiment takes it", name, i+1, m[1])
				}
			}
		}
	}
}
