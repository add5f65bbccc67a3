package dsmpm2_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesPrintTheirGoldens builds every example under examples/ once
// and runs each: its standard output must equal examples/testdata/<name>.golden
// byte for byte, and every example must have a golden and every golden an
// example. The examples run on the deterministic simulator and print no host
// reading, so a change that moves any number they report shows up here. A
// golden is rewritten on purpose with
// `go run ./examples/<name> > examples/testdata/<name>.golden`.
func TestExamplesPrintTheirGoldens(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && e.Name() != "testdata" {
			names = append(names, e.Name())
		}
	}
	goldens, err := filepath.Glob(filepath.Join("examples", "testdata", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) != len(names) {
		t.Errorf("%d examples, %d goldens", len(names), len(goldens))
	}
	for _, name := range names {
		want, err := os.ReadFile(filepath.Join("examples", "testdata", name+".golden"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var stdout, stderr bytes.Buffer
		run := exec.Command(filepath.Join(bin, name))
		run.Stdout, run.Stderr = &stdout, &stderr
		if err := run.Run(); err != nil {
			t.Errorf("%s: %v\n%s", name, err, stderr.String())
			continue
		}
		if got := stdout.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("%s prints\n%s\nwant its golden\n%s", name, got, want)
		}
	}
}
