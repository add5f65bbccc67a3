package main

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dsmpm2"
)

// defaultArgs is the flag defaults with -exp set.
func defaultArgs(exp string) cliArgs {
	var a cliArgs
	newFlagSet(&a)
	a.exp = exp
	return a
}

// TestCLIRejectsBadArgs pins the command's error edges: an unknown -exp or
// an out-of-range knob must exit 2 before any experiment runs, and the
// message must name what is valid.
func TestCLIRejectsBadArgs(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	cases := []struct {
		name string
		args []string
	}{
		{"unknown experiment", []string{"-exp", "bogus"}},
		{"empty experiment", []string{"-exp", ""}},
		{"misspelled serve", []string{"-exp", "server"}},
		// The kernel's host-scaling matrix and the one-valued -topology
		// are gone: their flags are refused.
		{"negative shards", []string{"-exp", "kernel", "-shards", "-1"}},
		{"shards outside kernel", []string{"-exp", "table3", "-shards", "4"}},
		{"faults sharded", []string{"-exp", "faults", "-shards", "2"}},
		{"removed topology", []string{"-exp", "multicluster", "-topology", "hier"}},
		// Caught before the eight experiments of "all" run, and before a
		// CPU profile is started.
		{"all with unknown inter", []string{"-exp", "all", "-inter", "bogus"}},
		{"unknown intra with profile", []string{"-exp", "multicluster", "-intra", "bogus", "-cpuprofile", prof}},
		{"zero clusters", []string{"-exp", "multicluster", "-clusters", "0"}},
		{"faults unknown inter", []string{"-exp", "faults", "-inter", "bogus"}},
		{"faults demo on one node", []string{"-exp", "faults", "-nodes", "1"}},
		{"unknown faults protocol", []string{"-exp", "faults", "-faultproto", "hbrc_mw,nope"}},
		{"zero perturb", []string{"-exp", "bisect", "-perturb", "0"}},
		{"negative perturb", []string{"-exp", "bisect", "-perturb", "-2"}},
		{"zero readers", []string{"-exp", "contention", "-readers", "0"}},
		{"two cities", []string{"-exp", "fig4", "-cities", "2"}},
		{"65 cities", []string{"-exp", "fig4detail", "-cities", "65"}},
		{"unknown tune workload", []string{"-exp", "tune", "-tuneworkload", "tsp"}},
		{"unknown tune protocol", []string{"-exp", "tune", "-tuneprotos", "li_hudak,nope"}},
		{"unknown tune topology", []string{"-exp", "tune", "-tunetopos", "mesh"}},
		{"unknown tune placement", []string{"-exp", "tune", "-tuneplace", "wild"}},
		// A value named twice would rank one cell twice.
		{"repeated tune protocol", []string{"-exp", "tune", "-tuneprotos", "li_hudak,li_hudak",
			"-tunetopos", "uniform", "-tuneplace", "static"}},
		// The tuner has no comm axis and no worker-pool knob any more: their
		// old flags are refused.
		{"unknown tune comm", []string{"-exp", "tune", "-tunecomm", "zip"}},
		{"negative tune workers", []string{"-exp", "tune", "-workers", "-4"}},
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
	if _, err := os.Stat(prof); !os.IsNotExist(err) {
		t.Errorf("a refused run created its CPU profile (stat: %v)", err)
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
	// -exp all runs multicluster, so it checks the profiles before anything
	// runs; the faults experiment checks them too, and its demo plan's layout.
	for _, c := range []struct {
		exp  string
		mut  func(*cliArgs)
		want string
	}{
		{"all", func(a *cliArgs) { a.inter = "bogus" }, `-inter profile "bogus"`},
		{"multicluster", func(a *cliArgs) { a.intra = "bogus" }, `-intra profile "bogus"`},
		{"multicluster", func(a *cliArgs) { a.clusters = 0 }, "-clusters 0"},
		{"faults", func(a *cliArgs) { a.nodes = 0 }, "-nodes 0"},
		{"faults", func(a *cliArgs) { a.nodes = 1 }, "-nodes >= 2"},
		{"faults", func(a *cliArgs) { a.faultProtos = "nope" }, `-faultproto "nope"`},
	} {
		if err := validateArgs(perturb(c.exp, c.mut)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-exp %s: error = %v, want it to name %s", c.exp, err, c.want)
		}
	}
	// A generated plan needs no demo node, so one node is fine.
	if err := validateArgs(perturb("faults", func(a *cliArgs) { a.nodes, a.mtbf = 1, 5 })); err != nil {
		t.Errorf("-exp faults -nodes 1 -mtbf 5 rejected: %v", err)
	}
	if err := validateArgs(perturb("bisect", func(a *cliArgs) { a.perturb = 0 })); err == nil ||
		!strings.Contains(err.Error(), "-perturb 0") {
		t.Errorf("perturb range error = %v, want it to name -perturb 0", err)
	}
	if err := validateArgs(perturb("contention", func(a *cliArgs) { a.readers = -1 })); err == nil ||
		!strings.Contains(err.Error(), "-readers -1") {
		t.Errorf("readers range error = %v, want it to name -readers -1", err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.tuneWorkload = "lu" })); err == nil ||
		!strings.Contains(err.Error(), "jacobi") || !strings.Contains(err.Error(), "serve") {
		t.Errorf("tune workload error = %v, want it to name the tunable workloads", err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.tuneProtos = "nope" })); err == nil ||
		!strings.Contains(err.Error(), "li_hudak") {
		t.Errorf("tune protocol error = %v, want it to name the protocol set", err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.tunePlace = "wild" })); err == nil ||
		!strings.Contains(err.Error(), "misplaced") {
		t.Errorf("tune placement error = %v, want it to name the placement set", err)
	}
	if err := validateArgs(perturb("tune", func(a *cliArgs) { a.tuneTopos = "hier,uniform,hier" })); err == nil ||
		!strings.Contains(err.Error(), `-tunetopos names "hier" twice`) {
		t.Errorf("tune repeated-topology error = %v, want it to name the axis and the value", err)
	}

	for _, e := range append([]experiment{{name: allExps}}, experiments...) {
		if err := validateArgs(defaultArgs(e.name)); err != nil {
			t.Errorf("valid experiment %q rejected: %v", e.name, err)
		}
	}
}

// TestEverySnapshotHasAnExperiment: the committed BENCH_*.json files and the
// table's snapshot files match one to one, so no snapshot is orphaned and
// none is missing from the tree.
func TestEverySnapshotHasAnExperiment(t *testing.T) {
	committed, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range committed {
		committed[i] = filepath.Base(f)
	}
	var written []string
	for _, e := range experiments {
		if e.snapshot != "" {
			written = append(written, e.snapshot)
		}
	}
	slices.Sort(committed)
	slices.Sort(written)
	if !slices.Equal(committed, written) {
		t.Errorf("committed snapshots %v, experiments write %v", committed, written)
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

// TestSnapshotsDeterministic is the dsmbench-level determinism property:
// two runs of an experiment emit a byte-identical snapshot, and no snapshot
// carries a host reading. The tune sweep's baseline is unranked.
func TestSnapshotsDeterministic(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, c := range []struct {
		exp  string
		args []string
		want string // a fragment the snapshot must hold
	}{
		{"tune", []string{"-tuneworkload", "jacobi", "-tuneprotos", "li_hudak,migrate_thread,adaptive"}, `"rank": 0,`},
		{"kernel", nil, `"queue": {`},
	} {
		t.Run(c.exp, func(t *testing.T) {
			args := append([]string{"-exp", c.exp, "-json"}, c.args...)
			run := func() string {
				if code := realMain(args); code != 0 {
					t.Fatalf("realMain(%v) = %d, want 0", args, code)
				}
				raw, err := os.ReadFile(selected(c.exp)[0].snapshot)
				if err != nil {
					t.Fatal(err)
				}
				return string(raw)
			}
			golden := run()
			if run() != golden {
				t.Errorf("-exp %s -json wrote two different snapshots", c.exp)
			}
			if strings.Contains(golden, `"host"`) {
				t.Errorf("-exp %s -json wrote a host stanza", c.exp)
			}
			if !strings.Contains(golden, c.want) {
				t.Errorf("-exp %s -json holds no %s", c.exp, c.want)
			}
		})
	}
}

// TestFaultsFailsOnErroredRun: a protocol whose run ends in an error fails
// the faults experiment, after its row is printed. A partition between the
// home and a worker that never heals deadlocks the run.
func TestFaultsFailsOnErroredRun(t *testing.T) {
	plan := filepath.Join(t.TempDir(), "plan.json")
	if err := dsmpm2.NewFaultPlan(1).Partition(0, 0, 1).Save(plan); err != nil {
		t.Fatal(err)
	}
	for _, json := range []bool{false, true} {
		args := []string{"-exp", "faults", "-faultplan", plan, "-faultproto", "hbrc_mw"}
		if json {
			args = append(args, "-json")
		}
		if code := realMain(args); code != 1 {
			t.Errorf("realMain(%v) = %d, want 1", args, code)
		}
	}
}
