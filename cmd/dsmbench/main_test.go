package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCLIRejectsBadArgs pins the command's error edges: an unknown -exp or
// an out-of-range knob must exit 2 before any experiment runs, and the
// message must name what is valid.
func TestCLIRejectsBadArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"unknown experiment", []string{"-exp", "bogus"}},
		{"empty experiment", []string{"-exp", ""}},
		{"misspelled serve", []string{"-exp", "server"}},
		{"negative shards", []string{"-exp", "kernel", "-shards", "-1"}},
		{"shards outside kernel", []string{"-exp", "table3", "-shards", "4"}},
		{"faults sharded", []string{"-exp", "faults", "-shards", "2"}},
		{"zero perturb", []string{"-exp", "bisect", "-perturb", "0"}},
		{"negative perturb", []string{"-exp", "bisect", "-perturb", "-2"}},
		{"zero readers", []string{"-exp", "contention", "-readers", "0"}},
		{"negative tune workers", []string{"-exp", "tune", "-workers", "-4"}},
		{"unknown tune workload", []string{"-exp", "tune", "-tuneworkload", "tsp"}},
		{"unknown tune protocol", []string{"-exp", "tune", "-tuneprotos", "li_hudak,nope"}},
		{"unknown tune topology", []string{"-exp", "tune", "-tunetopos", "mesh"}},
		{"unknown tune placement", []string{"-exp", "tune", "-tuneplace", "wild"}},
		// The tuner has no comm axis any more: its old flag is refused.
		{"unknown tune comm", []string{"-exp", "tune", "-tunecomm", "zip"}},
		{"unparseable flag", []string{"-exp"}},
		{"unknown flag", []string{"-frobnicate"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if code := realMain(c.args); code != 2 {
				t.Errorf("realMain(%v) = %d, want usage exit 2", c.args, code)
			}
		})
	}
}

// TestValidateArgsMessages: the usage errors must name the valid experiment
// set and the offending value, so a typo is self-correcting.
func TestValidateArgsMessages(t *testing.T) {
	err := validateArgs(defaultArgs("bogus"))
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, want := range []string{"bogus", "serve", "adapt", "kernel", "tune", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-exp error %q does not mention %q", err, want)
		}
	}
	perturb := func(exp string, mut func(*cliArgs)) cliArgs {
		a := defaultArgs(exp)
		mut(&a)
		return a
	}
	if err := validateArgs(perturb("kernel", func(a *cliArgs) { a.shards = -3 })); err == nil ||
		!strings.Contains(err.Error(), "-shards -3") {
		t.Errorf("shards range error = %v, want it to name -shards -3", err)
	}
	// -shards belongs to the kernel experiment (and the default "all"); any
	// other experiment names the flag and itself in the refusal.
	for _, exp := range experiments {
		err := validateArgs(perturb(exp, func(a *cliArgs) { a.shards = 4 }))
		if exp == "kernel" || exp == "all" {
			if err != nil {
				t.Errorf("-exp %s -shards 4 rejected: %v", exp, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "-shards 4") || !strings.Contains(err.Error(), "-exp "+exp) {
			t.Errorf("-exp %s -shards 4 error = %v, want it to name the flag and the experiment", exp, err)
		}
	}
	if err := validateArgs(perturb("bisect", func(a *cliArgs) { a.perturb = 0 })); err == nil ||
		!strings.Contains(err.Error(), "-perturb 0") {
		t.Errorf("perturb range error = %v, want it to name -perturb 0", err)
	}
	if err := validateArgs(perturb("contention", func(a *cliArgs) { a.readers = -1 })); err == nil ||
		!strings.Contains(err.Error(), "-readers -1") {
		t.Errorf("readers range error = %v, want it to name -readers -1", err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.workers = -2 })); err == nil ||
		!strings.Contains(err.Error(), "-workers -2") {
		t.Errorf("workers range error = %v, want it to name -workers -2", err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.tuneWorkload = "lu" })); err == nil ||
		!strings.Contains(err.Error(), "jacobi") || !strings.Contains(err.Error(), "serve") {
		t.Errorf("tune workload error = %v, want it to name the recordable workloads", err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.tuneProtos = "nope" })); err == nil ||
		!strings.Contains(err.Error(), "li_hudak") {
		t.Errorf("tune protocol error = %v, want it to name the protocol set", err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.tunePlace = "wild" })); err == nil ||
		!strings.Contains(err.Error(), "misplaced") {
		t.Errorf("tune placement error = %v, want it to name the placement set", err)
	}

	// A -cachedir colliding with a plain file is a usage error, not a
	// mid-sweep surprise.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.cacheDir = file })); err == nil ||
		!strings.Contains(err.Error(), "not a directory") {
		t.Errorf("cachedir error = %v, want it to name the file collision", err)
	}

	for _, exp := range experiments {
		if err := validateArgs(defaultArgs(exp)); err != nil {
			t.Errorf("valid experiment %q rejected: %v", exp, err)
		}
	}
}

// TestAxisList pins the grid-subset selector syntax.
func TestAxisList(t *testing.T) {
	for _, s := range []string{"all", "", "  all  "} {
		if got := axisList(s); got != nil {
			t.Errorf("axisList(%q) = %v, want nil (the whole axis)", s, got)
		}
	}
	got := axisList(" li_hudak, hbrc_mw ,,adaptive ")
	want := []string{"li_hudak", "hbrc_mw", "adaptive"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("axisList = %v, want %v", got, want)
	}
}

// TestCLIAcceptsProtocolsTable: the cheapest real experiment still runs and
// exits 0 through the refactored entry point.
func TestCLIAcceptsProtocolsTable(t *testing.T) {
	if code := realMain([]string{"-exp", "protocols"}); code != 0 {
		t.Fatalf("realMain(-exp protocols) = %d, want 0", code)
	}
}

// TestTuneSnapshotDeterministic is the dsmbench-level determinism property:
// the same workload and seed must emit a byte-identical BENCH_tune.json
// whatever the worker count, and a warm-cache re-run (which executes zero
// cells) must reproduce the same bytes again.
func TestTuneSnapshotDeterministic(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	cache := filepath.Join(dir, "cache")
	run := func(workers string, cached bool) []byte {
		cacheDir := ""
		if cached {
			cacheDir = cache
		}
		args := []string{"-exp", "tune", "-json", "-tuneworkload", "jacobi",
			"-tuneprotos", "li_hudak,migrate_thread,adaptive",
			"-workers", workers, "-cachedir", cacheDir}
		if code := realMain(args); code != 0 {
			t.Fatalf("realMain(%v) = %d, want 0", args, code)
		}
		raw, err := os.ReadFile(benchTuneFile)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	golden := run("1", false)
	if raw := run("7", false); string(raw) != string(golden) {
		t.Error("BENCH_tune.json differs between -workers 1 and -workers 7")
	}
	cold := run("0", true)
	if string(cold) != string(golden) {
		t.Error("BENCH_tune.json differs between cached and uncached sweeps")
	}
	warm := run("0", true)
	if string(warm) != string(golden) {
		t.Error("warm-cache BENCH_tune.json is not byte-identical to the cold run")
	}
}
