// Command dsmbench regenerates the paper's evaluation (Section 4) — Tables 3
// and 4, Figures 4 and 5, the Section 2.1 micro-costs — and the experiments
// beyond it, printing the paper's numbers next to the measured ones.
//
//	dsmbench -exp all   # every experiment of the paper
//	dsmbench -h         # the experiment list and the flags
//
// EXPERIMENTS.md explains each experiment and the BENCH_*.json snapshot its
// -json run writes; -cpuprofile/-memprofile capture pprof profiles of any
// of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/mapcolor"
	"dsmpm2/internal/apps/tsp"
	"dsmpm2/internal/bench"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/tune"
)

// main delegates to realMain so error paths unwind through the deferred
// profile writers (os.Exit would skip pprof.StopCPUProfile and leave a
// truncated CPU profile).
func main() {
	os.Exit(realMain(os.Args[1:]))
}

// experiment is one -exp value. The table below is the only list of them:
// the -exp help, the usage listing, the unknown-experiment error, what
// -exp all runs and the dispatch all derive from it.
type experiment struct {
	name string
	doc  string // one line, for the usage listing
	// inAll puts the experiment in -exp all. The others are explicit
	// opt-ins: wall-clock heavy, long, or writing a snapshot.
	inAll bool
	// snapshot is the BENCH_*.json file -json writes; "" prints the -json
	// document on stdout instead.
	snapshot string
	// check rejects the flag values the experiment cannot take before
	// anything runs; nil when it takes none.
	check func(*cliArgs) error
	// run prints the experiment's report and returns its -json document
	// (nil when it has none).
	run func(*cliArgs) (any, error)
}

var experiments = []experiment{
	{name: "protocols", doc: "the built-in protocol registry (Table 2)", inAll: true, run: protocolsTable},
	{name: "rpc", doc: "null RPC micro-latency (Section 2.1)", inAll: true, run: rpcTable},
	{name: "migration", doc: "thread migration micro-latency (Section 2.1)", inAll: true, run: migrationTable},
	{name: "table3", doc: "read fault, page-migration policy (Table 3)", inAll: true, run: table3},
	{name: "table4", doc: "read fault, thread-migration policy (Table 4)", inAll: true, run: table4},
	{name: "fig4", doc: "TSP protocol comparison (Figure 4)", inAll: true, check: checkCities, run: figure4},
	{name: "fig4detail", doc: "why migrate_thread loses Figure 4: per-node CPU and migrations", inAll: true, check: checkCities, run: figure4Detail},
	{name: "fig5", doc: "Java consistency comparison on map coloring (Figure 5)", inAll: true, run: figure5},
	{name: "multicluster", doc: "hierarchical topology: intra- vs inter-cluster faults", inAll: true, check: checkLayout, run: multicluster},
	{name: "contention", doc: "link bandwidth occupancy: queueing delay", inAll: true, check: checkContention, run: contention},
	{name: "kernel", doc: "simulator work at scale: events, threads, queue traffic", snapshot: "BENCH_kernel.json", run: kernel},
	{name: "faults", doc: "crash/restart fault plans on restart-aware jacobi", check: checkFaults, run: faults},
	{name: "comm", doc: "communication-module wire accounting", snapshot: "BENCH_comm.json", run: comm},
	{name: "adapt", doc: "sharing-pattern profiler + dynamic home migration", snapshot: "BENCH_adapt.json", run: adapt},
	{name: "serve", doc: "Zipf-serving KV store: per-op tail latency, static vs adaptive", snapshot: "BENCH_serve.json", run: serve},
	{name: "ckpt", doc: "checkpoint/resume: round trip, warm vs cold restart", snapshot: "BENCH_ckpt.json", run: ckpt},
	{name: "bisect", doc: "binary search for the first divergent pause point", check: checkBisect, run: bisect},
	{name: "tune", doc: "what-if auto-tuner: re-simulate the config grid, rank the cells", snapshot: "BENCH_tune.json", check: checkTune, run: tuneExp},
}

// allExps is the -exp value that runs every experiment marked inAll.
const allExps = "all"

// selected returns the experiments an -exp value names, in table order.
func selected(exp string) []*experiment {
	var out []*experiment
	for i := range experiments {
		if e := &experiments[i]; e.name == exp || (exp == allExps && e.inAll) {
			out = append(out, e)
		}
	}
	return out
}

// expNames lists every valid -exp value.
func expNames() string {
	names := []string{allExps}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ")
}

// cliArgs is the command's flag set; newFlagSet fills in the defaults, so
// tests can perturb one knob at a time.
type cliArgs struct {
	exp      string
	json     bool
	cities   int
	readers  int
	perturb  int
	nodes    int
	clusters int
	intra    string
	inter    string
	// The faults experiment's plan: a JSON file, a generated MTBF
	// schedule, or the pinned demo.
	faultPlan   string
	mtbf        float64
	repair      float64
	faultSeed   int64
	faultProtos string
	// The tune experiment's knobs: the workload and the grid-subset
	// selectors (comma-separated axis values; "all"/"" keeps the whole axis).
	tuneWorkload string
	tuneProtos   string
	tuneTopos    string
	tunePlace    string
	cpuProfile   string
	memProfile   string
}

// newFlagSet defines every flag onto a, leaving a at the defaults.
func newFlagSet(a *cliArgs) *flag.FlagSet {
	fs := flag.NewFlagSet("dsmbench", flag.ContinueOnError)
	fs.StringVar(&a.exp, "exp", allExps, "experiment: "+expNames()+" (all = every one marked * below)")
	fs.BoolVar(&a.json, "json", false, "write the experiment's BENCH_*.json snapshot (faults: print its results as JSON)")
	fs.IntVar(&a.cities, "cities", 14, "TSP cities for fig4 and fig4detail (paper: 14)")
	fs.IntVar(&a.readers, "readers", 8, "concurrent transfers for the contention experiment")
	fs.IntVar(&a.perturb, "perturb", 3, "bisect experiment: session step at which the deliberate divergence is injected")
	fs.IntVar(&a.nodes, "nodes", 8, "cluster size for multicluster and faults")
	fs.IntVar(&a.clusters, "clusters", 2, "cluster count of the hierarchical topology")
	fs.StringVar(&a.intra, "intra", "SISCI/SCI", "intra-cluster profile of the hierarchical topology")
	fs.StringVar(&a.inter, "inter", "TCP/Fast Ethernet", "inter-cluster profile of the hierarchical topology")
	fs.StringVar(&a.faultPlan, "faultplan", "", "JSON fault plan file for the faults experiment")
	fs.Float64Var(&a.mtbf, "mtbf", 0, "generate a fault plan: mean time between failures per node (virtual ms)")
	fs.Float64Var(&a.repair, "repair", 3, "generated plans: node repair time (virtual ms)")
	fs.Int64Var(&a.faultSeed, "faultseed", 11, "seed for generated fault plans and message-loss draws")
	fs.StringVar(&a.faultProtos, "faultproto", "hbrc_mw,entry_mw", "comma-separated protocols for the faults experiment (all = every registered protocol)")
	fs.StringVar(&a.tuneWorkload, "tuneworkload", "jacobi", "tune: workload to sweep (jacobi, matmul, serve)")
	fs.StringVar(&a.tuneProtos, "tuneprotos", "all", "tune: comma-separated protocol subset of the grid (all = every registered protocol)")
	fs.StringVar(&a.tuneTopos, "tunetopos", "all", "tune: comma-separated topology subset (uniform, hier)")
	fs.StringVar(&a.tunePlace, "tuneplace", "all", "tune: comma-separated placement subset (static, misplaced, adaptive)")
	fs.StringVar(&a.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&a.memProfile, "memprofile", "", "write a heap profile to this file")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintln(out, "Usage: dsmbench [flags]")
		fs.PrintDefaults()
		fmt.Fprintf(out, "\nExperiments (-exp %s runs those marked *):\n", allExps)
		for _, e := range experiments {
			mark := " "
			if e.inAll {
				mark = "*"
			}
			fmt.Fprintf(out, "  %s %-13s %s", mark, e.name, e.doc)
			if e.snapshot != "" {
				fmt.Fprintf(out, " (-json writes %s)", e.snapshot)
			}
			fmt.Fprintln(out)
		}
	}
	return fs
}

// axisList parses a comma-separated grid-subset selector; "all" (or empty)
// selects the whole axis, rendered as a nil subset for tune.Options.
func axisList(csv string) []string {
	csv = strings.TrimSpace(csv)
	if csv == "" || csv == "all" {
		return nil
	}
	var out []string
	for _, v := range strings.Split(csv, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// checkAxis rejects a grid-subset selector naming an unknown axis value (the
// error names the valid set so a typo is self-correcting) or one value twice.
func checkAxis(flagName, csv string, valid []string) error {
	vals := axisList(csv)
	for i, v := range vals {
		if !slices.Contains(valid, v) {
			return fmt.Errorf("-%s %q is not a valid value (valid: %s, or all)",
				flagName, v, strings.Join(valid, ", "))
		}
		if slices.Contains(vals[:i], v) {
			return fmt.Errorf("-%s names %q twice", flagName, v)
		}
	}
	return nil
}

// validateArgs rejects an unknown experiment or a flag value one of the
// selected experiments cannot take before anything runs, so a typo exits 2
// with usage instead of silently running zero experiments or failing
// mid-suite.
func validateArgs(a cliArgs) error {
	sel := selected(a.exp)
	if len(sel) == 0 {
		return fmt.Errorf("unknown experiment %q (valid: %s)", a.exp, expNames())
	}
	for _, e := range sel {
		if e.check == nil {
			continue
		}
		if err := e.check(&a); err != nil {
			return err
		}
	}
	return nil
}

// checkLayout rejects a hierarchical layout or link profile the topology
// cannot take.
func checkLayout(a *cliArgs) error {
	if a.nodes < 1 || a.clusters < 1 {
		return fmt.Errorf("invalid layout: -nodes %d -clusters %d (both must be >= 1)", a.nodes, a.clusters)
	}
	for _, p := range [][2]string{{"intra", a.intra}, {"inter", a.inter}} {
		if dsmpm2.ResolveProfile(p[1]) == nil {
			return fmt.Errorf("unknown -%s profile %q (have %v plus aliases like TCP/Ethernet, SCI)",
				p[0], p[1], madeleine.ProfileNames())
		}
	}
	return nil
}

func checkFaults(a *cliArgs) error {
	if err := checkLayout(a); err != nil {
		return err
	}
	// Node 0 is the protected home and synchronization manager: the demo
	// plan must never target it.
	if a.faultPlan == "" && a.mtbf <= 0 && a.nodes < 2 {
		return fmt.Errorf("the demo plan needs -nodes >= 2 (node 0 is protected)")
	}
	return checkAxis("faultproto", a.faultProtos, tune.Protocols)
}

func checkContention(a *cliArgs) error {
	if a.readers < 1 {
		return fmt.Errorf("-readers %d out of range (want >= 1 concurrent transfers)", a.readers)
	}
	return nil
}

func checkCities(a *cliArgs) error {
	if a.cities < 3 || a.cities > 64 {
		return fmt.Errorf("-cities %d out of range (want 3..64)", a.cities)
	}
	return nil
}

func checkBisect(a *cliArgs) error {
	if a.perturb < 1 {
		return fmt.Errorf("-perturb %d out of range (want >= 1: a session step index)", a.perturb)
	}
	return nil
}

func checkTune(a *cliArgs) error {
	if !slices.Contains(tune.Workloads, a.tuneWorkload) {
		return fmt.Errorf("-tuneworkload %q is not a tunable workload (valid: %s)",
			a.tuneWorkload, strings.Join(tune.Workloads, ", "))
	}
	for _, ax := range []struct {
		flag, csv string
		valid     []string
	}{
		{"tuneprotos", a.tuneProtos, tune.Protocols},
		{"tunetopos", a.tuneTopos, tune.Topologies},
		{"tuneplace", a.tunePlace, tune.Placements},
	} {
		if err := checkAxis(ax.flag, ax.csv, ax.valid); err != nil {
			return err
		}
	}
	return nil
}

func realMain(args []string) (code int) {
	var a cliArgs
	fs := newFlagSet(&a)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateArgs(a); err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: %v\n", err)
		fs.Usage()
		return 2
	}

	if a.cpuProfile != "" {
		f, err := os.Create(a.cpuProfile)
		if err != nil {
			log.Printf("-cpuprofile: %v", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Printf("-cpuprofile: %v", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if a.memProfile == "" {
			return
		}
		f, err := os.Create(a.memProfile)
		if err != nil {
			log.Printf("-memprofile: %v", err)
			if code == 0 {
				code = 1
			}
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Printf("-memprofile: %v", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	for _, e := range selected(a.exp) {
		doc, err := e.run(&a)
		if a.json && doc != nil {
			if h, ok := doc.(interface{ stamp(string) }); ok {
				h.stamp(e.name)
			}
			if werr := writeSnapshot(e.snapshot, doc); err == nil {
				err = werr
			}
		}
		if err != nil {
			log.Printf("%s: %v", e.name, err)
			return 1
		}
	}
	return 0
}

// snapHeader opens every BENCH_*.json document: the experiment that wrote
// it. Nothing in a snapshot depends on the host, so a regenerated one is
// byte-identical.
type snapHeader struct {
	Experiment string `json:"experiment"`
}

func (h *snapHeader) stamp(exp string) { h.Experiment = exp }

// writeSnapshot writes v as indented JSON into file, or onto stdout when
// file is "".
func writeSnapshot(file string, v any) error {
	var w io.Writer = os.Stdout
	if file != "" {
		f, err := os.Create(file)
		if err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	if file != "" {
		fmt.Printf("wrote %s\n", file)
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func protocolsTable(*cliArgs) (any, error) {
	header("Table 2: built-in consistency protocols")
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	fmt.Printf("%-16s\n", "protocol")
	for _, name := range sys.ProtocolNames() {
		fmt.Printf("%-16s\n", name)
	}
	return nil, nil
}

func rpcTable(*cliArgs) (any, error) {
	header("Section 2.1: null RPC latency (us)")
	fmt.Printf("%-20s %10s %10s\n", "network", "paper", "measured")
	paper := map[string]string{"BIP/Myrinet": "8", "SISCI/SCI": "6", "TCP/Myrinet": "-", "TCP/Fast Ethernet": "-"}
	for _, prof := range dsmpm2.Networks {
		us := bench.NullRPC(prof)
		fmt.Printf("%-20s %10s %10.0f\n", prof.Name, paper[prof.Name], us)
	}
	return nil, nil
}

func migrationTable(*cliArgs) (any, error) {
	header("Section 2.1: minimal-thread migration latency (us)")
	fmt.Printf("%-20s %10s %10s\n", "network", "paper", "measured")
	paper := map[string]string{"BIP/Myrinet": "75", "SISCI/SCI": "62", "TCP/Myrinet": "280", "TCP/Fast Ethernet": "373"}
	for _, prof := range dsmpm2.Networks {
		us := bench.Migration(prof)
		fmt.Printf("%-20s %10s %10.0f\n", prof.Name, paper[prof.Name], us)
	}
	return nil, nil
}

// cell is one Table 3/4 cell: the paper's value next to the measured one.
func cell(paper int, got float64) string { return fmt.Sprintf("%d / %.0f", paper, got) }

func table3(*cliArgs) (any, error) {
	header("Table 3: read fault, page-migration policy (us)")
	paper := map[string][5]int{
		"BIP/Myrinet":       {11, 23, 138, 26, 198},
		"TCP/Myrinet":       {11, 220, 343, 26, 600},
		"TCP/Fast Ethernet": {11, 220, 736, 26, 993},
		"SISCI/SCI":         {11, 38, 119, 26, 194},
	}
	fmt.Printf("%-20s %22s %22s %22s %22s %22s\n",
		"network", "page fault", "request page", "page transfer", "proto overhead", "total")
	for _, prof := range dsmpm2.Networks {
		ft := bench.ReadFaultPage(prof)
		p := paper[prof.Name]
		fmt.Printf("%-20s %22s %22s %22s %22s %22s\n", prof.Name,
			cell(p[0], ft.Detect.Microseconds()),
			cell(p[1], ft.Request.Microseconds()),
			cell(p[2], ft.Transfer.Microseconds()),
			cell(p[3], ft.ProtocolOverhead().Microseconds()),
			cell(p[4], ft.Total.Microseconds()))
	}
	fmt.Println("(cells are paper / measured)")
	return nil, nil
}

func table4(*cliArgs) (any, error) {
	header("Table 4: read fault, thread-migration policy (us)")
	paper := map[string][4]int{
		"BIP/Myrinet":       {11, 75, 1, 87},
		"TCP/Myrinet":       {11, 280, 1, 292},
		"TCP/Fast Ethernet": {11, 373, 1, 385},
		"SISCI/SCI":         {11, 62, 1, 74},
	}
	fmt.Printf("%-20s %22s %22s %22s %22s\n",
		"network", "page fault", "thread migration", "proto overhead", "total")
	for _, prof := range dsmpm2.Networks {
		ft := bench.ReadFaultMigrate(prof)
		p := paper[prof.Name]
		fmt.Printf("%-20s %22s %22s %22s %22s\n", prof.Name,
			cell(p[0], ft.Detect.Microseconds()),
			cell(p[1], ft.Migration.Microseconds()),
			cell(p[2], ft.Overhead.Microseconds()),
			cell(p[3], ft.Total.Microseconds()))
	}
	fmt.Println("(cells are paper / measured)")
	return nil, nil
}

func figure4(a *cliArgs) (any, error) {
	header(fmt.Sprintf("Figure 4: TSP (%d cities, random distances), BIP/Myrinet", a.cities))
	serial := tsp.SolveSerial(tsp.Distances(a.cities, 42))
	fmt.Printf("serial optimum: %d\n", serial)
	fmt.Printf("%-16s", "protocol")
	nodeCounts := []int{1, 2, 4, 8}
	for _, n := range nodeCounts {
		fmt.Printf(" %13s", fmt.Sprintf("%d node(ms)", n))
	}
	fmt.Println()
	for _, proto := range []string{"li_hudak", "erc_sw", "hbrc_mw", "migrate_thread"} {
		fmt.Printf("%-16s", proto)
		for _, n := range nodeCounts {
			res, err := tsp.Run(tsp.Config{
				Cities: a.cities, Seed: 42, Nodes: n,
				Network: dsmpm2.BIPMyrinet, Protocol: proto,
			})
			if err != nil {
				return nil, fmt.Errorf("[%s/%d] %v", proto, n, err)
			}
			if res.BestCost != serial {
				return nil, fmt.Errorf("[%s/%d] wrong optimum %d", proto, n, res.BestCost)
			}
			fmt.Printf(" %13.2f", float64(res.Elapsed)/1e6)
		}
		fmt.Println()
	}
	fmt.Println("expected shape: page-based protocols beat migrate_thread (owner overload)")
	return nil, nil
}

// figure4Detail explains Figure 4's shape: per-node CPU occupancy and
// migration counts for the page-based winner vs migrate_thread.
func figure4Detail(a *cliArgs) (any, error) {
	header("Figure 4 detail: why migrate_thread loses (4 nodes)")
	for _, proto := range []string{"li_hudak", "migrate_thread"} {
		res, err := tsp.Run(tsp.Config{
			Cities: a.cities, Seed: 42, Nodes: 4,
			Network: dsmpm2.BIPMyrinet, Protocol: proto,
		})
		if err != nil {
			return nil, fmt.Errorf("[%s] %v", proto, err)
		}
		rt := res.System.Runtime()
		fmt.Printf("\n%s (run time %.2f ms):\n", proto, float64(res.Elapsed)/1e6)
		fmt.Printf("  %6s %14s %12s %12s\n", "node", "cpu busy(ms)", "migr. in", "faults")
		for n := 0; n < 4; n++ {
			fmt.Printf("  %6d %14.2f %12d %12d\n",
				n, res.System.Runtime().Node(n).CPU.Busy().Microseconds()/1000,
				rt.Node(n).MigrationsIn, res.System.DSM().FaultsOn(n))
		}
	}
	fmt.Println("\nUnder migrate_thread, every thread that touches the shared bound")
	fmt.Println("migrates to node 0 and stays: node 0's CPU does nearly all the work.")
	return nil, nil
}

func figure5(*cliArgs) (any, error) {
	header("Figure 5: map coloring (29 eastern US states, 4 weighted colors), SISCI/SCI, 4 nodes")
	serial := mapcolor.SolveSerial()
	fmt.Printf("serial optimum: %d\n", serial)
	fmt.Printf("%-10s", "protocol")
	threads := []int{1, 2, 4}
	for _, th := range threads {
		fmt.Printf(" %16s", fmt.Sprintf("%d thr/node(ms)", th))
	}
	fmt.Println()
	for _, proto := range []string{"java_ic", "java_pf"} {
		fmt.Printf("%-10s", proto)
		for _, th := range threads {
			res, err := mapcolor.Run(mapcolor.Config{
				Nodes: 4, ThreadsPerNode: th,
				Network: dsmpm2.SISCISCI, Protocol: proto, Seed: 7,
			})
			if err != nil {
				return nil, fmt.Errorf("[%s/%d] %v", proto, th, err)
			}
			if res.BestCost != serial {
				return nil, fmt.Errorf("[%s/%d] wrong optimum %d", proto, th, res.BestCost)
			}
			fmt.Printf(" %16.2f", float64(res.Elapsed)/1e6)
		}
		fmt.Println()
	}
	fmt.Println("expected shape: java_pf outperforms java_ic (page faults beat inline checks)")
	return nil, nil
}

// multicluster measures remote read faults across a heterogeneous topology
// and reports the per-link-class cost split the uniform paper setup cannot
// express.
func multicluster(a *cliArgs) (any, error) {
	intra, inter := dsmpm2.ResolveProfile(a.intra), dsmpm2.ResolveProfile(a.inter)
	header(fmt.Sprintf("Multicluster: %d nodes in %d clusters, %s inside / %s between",
		a.nodes, a.clusters, intra.Name, inter.Name))
	faults := bench.HierReadFaults(a.nodes, a.clusters, intra, inter, "li_hudak")
	fmt.Printf("%-20s %8s %18s\n", "link class", "faults", "mean total (us)")
	byLink := map[string]bench.LinkFault{}
	for _, f := range faults {
		byLink[f.Link] = f
		fmt.Printf("%-20s %8d %18.0f\n", f.Link, f.Count, f.MeanTotalUS)
	}
	in, okIn := byLink[intra.Name]
	out, okOut := byLink[inter.Name]
	if okIn && okOut {
		fmt.Printf("inter-cluster faults cost %.1fx the intra-cluster ones\n",
			out.MeanTotalUS/in.MeanTotalUS)
	}
	fmt.Println("(same protocol stack, only the link profiles differ — the paper's")
	fmt.Println(" portability claim extended to heterogeneous clusters)")
	return nil, nil
}

// contention shows the link occupancy model: concurrent page transfers over
// one saturated link serialize in virtual time.
func contention(a *cliArgs) (any, error) {
	header(fmt.Sprintf("Link contention: %d concurrent 4 KiB transfers over one BIP/Myrinet link", a.readers))
	res := bench.Contention(dsmpm2.BIPMyrinet, a.readers)
	fmt.Printf("%-34s %12.0f\n", "mean fault, contention off (us)", res.MeanFaultOffUS)
	fmt.Printf("%-34s %12.0f\n", "mean fault, contention on  (us)", res.MeanFaultOnUS)
	fmt.Printf("%-34s %12d\n", "messages queued on busy link", res.Waits)
	fmt.Printf("%-34s %12.0f\n", "total queueing delay (us)", res.WaitTimeUS)
	fmt.Println("(off: transfers overlap for free; on: FIFO serialization per link)")
	return nil, nil
}

// kernelSnapshot is the BENCH_kernel.json document: the kernel suite's
// work, exact per seed.
type kernelSnapshot struct {
	snapHeader
	Current []bench.KernelResult `json:"current"`
}

// kernel runs the simulator itself, not the simulated cluster: the events
// each scenario fired, the virtual time and threads it covered, and what the
// event queue's traffic looked like. Host time and allocations are the
// benchmark/ ledger's to measure.
func kernel(*cliArgs) (any, error) {
	header("Kernel: simulator work per scenario (exact per seed)")
	cur := bench.KernelSuite()
	fmt.Printf("%-36s %10s %12s %8s\n", "scenario", "events", "virtual(ms)", "threads")
	for _, r := range cur {
		fmt.Printf("%-36s %10d %12.3f %8d\n", r.Name, r.Events, r.VirtualMS, r.Threads)
	}
	fmt.Println("(host time and allocations: bash benchmark/run.sh)")
	fmt.Printf("\n%-36s %8s %9s %8s %14s %10s %10s %8s %10s %8s\n",
		"event queue traffic", "at-now", "new-run", "joined", "deadlines l/i", "peak heap",
		"resumes", "steps", "self-wakes", "drains")
	for _, r := range cur {
		q := r.Queue
		pct := func(n uint64) float64 { return 100 * float64(n) / float64(max(r.Events, 1)) }
		fmt.Printf("%-36s %7.1f%% %8.1f%% %7.1f%% %14s %10d %10d %8d %10d %8d\n", r.Name,
			pct(q.AtNow), pct(q.NewRun), pct(q.Joined),
			fmt.Sprintf("%d/%d", q.DeadlineLive, q.DeadlineInert), q.PeakHeap,
			q.Resumes, q.Steps, q.SelfWakes, q.Drains)
	}
	fmt.Println("(at-now, new-run and joined share the events: an at-now push appends to the")
	fmt.Println(" now-ring, a new-run push is a heap insert, a joined one a ring append; deadlines l/i =")
	fmt.Println(" timed-wait records fired live / inert; resumes = coroutine resumes by the event loop,")
	fmt.Println(" two switches each; steps = step proc bodies run, no switch (a page install);")
	fmt.Println(" self-wakes = wake records a yielding proc consumed without a switch; drains = bursts")
	fmt.Println(" handed to a bound channel's sink)")
	return &kernelSnapshot{Current: cur}, nil
}

// resultsSnapshot is a BENCH_*.json document whose body is one list of rows:
// BENCH_comm.json and BENCH_adapt.json.
type resultsSnapshot[T any] struct {
	snapHeader
	Results []T `json:"results"`
}

// comm reports the communication module's wire accounting across the
// barrier-phased applications at cluster scale, then runs the scale rows:
// jacobi on the 8-cluster hierarchical topology at 64 and 512 nodes,
// reporting the per-barrier backbone envelope cost.
func comm(*cliArgs) (any, error) {
	header("Comm: communication-module wire accounting (virtual-time exact)")
	results := bench.CommSuite()
	fmt.Printf("%-10s %6s %10s %10s %9s %8s %8s %8s %8s %12s\n",
		"app", "nodes", "messages", "envelopes", "syncenv", "invals", "acks", "diffs", "notices", "elapsed(ms)")
	for _, r := range results {
		fmt.Printf("%-10s %6d %10d %10d %9d %8d %8d %8d %8d %12.2f\n",
			r.App, r.Nodes, r.Messages, r.Envelopes, r.SyncEnvelopes,
			r.Invalidations, r.InvAcks, r.DiffsSent, r.Notices, r.VirtualMS)
	}
	fmt.Println("(envelopes = wire departures, a multi-part outbox envelope counting once;")
	fmt.Println(" syncenv excludes the page-fetch pairs no coalescing can remove. The hbrc_mw")
	fmt.Println(" jacobi rows show zero invalidation envelopes: the barrier's write notices")
	fmt.Println(" carry the invalidation information for free)")

	header("Comm scale: per-barrier backbone envelopes on a hierarchical topology")
	fmt.Printf("%-12s %6s %9s %10s %9s %10s %13s\n",
		"app", "nodes", "clusters", "envelopes", "backbone", "barriers", "backbone/bar")
	for _, r := range bench.CommScaleSuite() {
		results = append(results, r)
		fmt.Printf("%-12s %6d %9d %10d %9d %10d %13.1f\n",
			r.App, r.Nodes, r.Clusters, r.Envelopes,
			r.BackboneEnvelopes, r.Barriers, r.BackbonePerBarrier)
	}
	fmt.Println("(backbone/bar subtracts the remote page-fetch pairs; what remains is the")
	fmt.Println(" synchronization traffic: every non-home arrival crosses the backbone, O(N)")
	fmt.Println(" per generation)")
	return &resultsSnapshot[bench.CommResult]{Results: results}, nil
}

// adapt compares static (misplaced) page placement against the online
// profiler's dynamic home migration across the barrier-phased applications.
func adapt(*cliArgs) (any, error) {
	header("Adapt: static (misplaced) homes vs online profiler + home migration")
	results := bench.AdaptSuite()
	fmt.Printf("%-10s %-10s %6s %10s %8s %10s %7s %8s %10s %12s\n",
		"app", "protocol", "nodes", "placement", "remote", "misplaced", "migr", "diffs", "diffbytes", "elapsed(ms)")
	placement := func(adaptive bool) string {
		if adaptive {
			return "adaptive"
		}
		return "static"
	}
	byKey := map[string]bench.AdaptResult{}
	for _, r := range results {
		byKey[fmt.Sprintf("%s/%s/%d/%v", r.App, r.Protocol, r.Nodes, r.Adaptive)] = r
		fmt.Printf("%-10s %-10s %6d %10s %8d %10d %7d %8d %10d %12.2f\n",
			r.App, r.Protocol, r.Nodes, placement(r.Adaptive), r.RemoteFetches,
			r.MisplacedFetches, r.HomeMigrations, r.DiffsSent, r.DiffBytes, r.VirtualMS)
		if r.Adaptive && len(r.Epochs) > 0 {
			last := r.Epochs[len(r.Epochs)-1]
			fmt.Printf("    epochs=%d, last histogram: private=%d read-shared=%d prod-cons=%d migratory=%d falsely-shared=%d idle=%d\n",
				len(r.Epochs), last.Private, last.ReadShared, last.ProducerConsumer,
				last.Migratory, last.FalselyShared, last.Idle)
		}
	}
	s, a := byKey["jacobi/entry_mw/64/false"], byKey["jacobi/entry_mw/64/true"]
	if a.RemoteFetches > 0 {
		fmt.Printf("jacobi 64-node remote-fetch reduction: %.2fx (%d -> %d); elapsed %.2f -> %.2f ms; %d home migrations\n",
			float64(s.RemoteFetches)/float64(a.RemoteFetches), s.RemoteFetches, a.RemoteFetches,
			s.VirtualMS, a.VirtualMS, a.HomeMigrations)
	}
	fmt.Println("(all scenarios start with every page homed on node 0; 'adaptive' lets the")
	fmt.Println(" profiler re-home pages onto their dominant writers at barrier epochs. The")
	fmt.Println(" matmul row is the barrier-free control: no epochs, no migrations, no cost)")
	return &resultsSnapshot[bench.AdaptResult]{Results: results}, nil
}

// serveSnapshot is the BENCH_serve.json document.
type serveSnapshot struct {
	snapHeader
	Static bench.ServeResult `json:"static"`
	// Adaptive serves the identical trace with home migration on.
	Adaptive bench.ServeResult `json:"adaptive"`
	// ReplayIdentical reports whether a full replay of the adaptive run
	// reproduced every latency histogram bit-identically.
	ReplayIdentical bool `json:"replay_identical"`
}

// serve runs the Zipf-serving KV store under static and adaptive placement
// and reports the per-operation tail latencies. It fails unless the
// adaptive p99 beats the static one and the replay check holds.
func serve(*cliArgs) (any, error) {
	header("Serve: Zipf KV store tail latency, static (misplaced) vs adaptive homes")
	static, adaptive, replayOK, err := bench.ServeSuite()
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload: %d requests over %d keys in %d buckets on %d nodes, %s\n",
		static.Requests, static.Keys, static.Buckets, static.Nodes, static.Protocol)
	fmt.Printf("%-10s %-6s %8s %12s %12s %12s %12s %12s\n",
		"placement", "op", "count", "p50(us)", "p95(us)", "p99(us)", "mean(us)", "max(us)")
	us := func(d dsmpm2.Duration) float64 { return float64(d) / 1e3 }
	for _, r := range []bench.ServeResult{static, adaptive} {
		for _, o := range r.Ops {
			fmt.Printf("%-10s %-6s %8d %12.1f %12.1f %12.1f %12.1f %12.1f\n",
				r.Placement, o.Kind, o.Count, us(o.P50), us(o.P95), us(o.P99), us(o.Mean), us(o.Max))
		}
	}
	fmt.Printf("home migrations: static %d, adaptive %d; remote fetches %d -> %d\n",
		static.HomeMigrations, adaptive.HomeMigrations, static.RemoteFetches, adaptive.RemoteFetches)
	fmt.Printf("hot keys (by request count): %v\n", adaptive.HotKeys)
	sp99, ap99 := bench.ServeP99(static), bench.ServeP99(adaptive)
	fmt.Printf("get p99 under hot-key churn: static %.1fus -> adaptive %.1fus (%.2fx)\n",
		us(sp99), us(ap99), float64(sp99)/float64(ap99))
	fmt.Printf("replay histograms bit-identical: %v\n", replayOK)
	fmt.Println("(open-loop trace: arrivals never wait for completions, so a slow placement")
	fmt.Println(" surfaces as queueing delay in the tail. Quantiles are fixed-grid values from")
	fmt.Println(" the core histograms — virtual-time exact and deterministic per seed)")
	if ap99 >= sp99 {
		return nil, fmt.Errorf("adaptive get p99 %v did not beat static %v", ap99, sp99)
	}
	if !replayOK {
		return nil, fmt.Errorf("replayed adaptive run diverged from the first (histograms not bit-identical)")
	}
	return &serveSnapshot{Static: static, Adaptive: adaptive, ReplayIdentical: replayOK}, nil
}

// ckptSnapshot is the BENCH_ckpt.json document.
type ckptSnapshot struct {
	snapHeader
	// Roundtrip sweeps the resume property over every step.
	Roundtrip bench.CkptRoundtrip `json:"roundtrip"`
	// Restart compares warm (resume-from-checkpoint) against cold
	// (redo-from-scratch) crash recovery on the faulty-jacobi plan; the
	// acceptance headline is warm.redone_units < cold.redone_units.
	Restart []bench.CkptRestart `json:"restart"`
}

// ckpt runs the checkpoint experiment suite.
func ckpt(*cliArgs) (any, error) {
	header("Checkpoint/resume: round-trip sweep, warm vs cold crash-restart")
	rt, err := bench.CkptRoundtripSweep()
	if err != nil {
		return nil, err
	}
	fmt.Printf("round-trip: %d/%d steps resumed bit-identically (%d mismatches), token <= %d bytes\n",
		rt.Swept-rt.Mismatches, rt.Swept, rt.Mismatches, rt.SnapshotBytes)
	if rt.Mismatches > 0 {
		return nil, fmt.Errorf("ckpt: %d of %d sweep points diverged after resume", rt.Mismatches, rt.Swept)
	}

	warm, cold, err := bench.CkptRestartCompare()
	if err != nil {
		return nil, err
	}
	warm.ChecksumOK = warm.Checksum == rt.Checksum
	cold.ChecksumOK = cold.Checksum == rt.Checksum
	fmt.Printf("%-6s %13s %14s %12s %10s %9s\n", "mode", "redone units", "warm restarts", "elapsed(ms)", "checksum", "correct")
	for _, r := range []bench.CkptRestart{warm, cold} {
		fmt.Printf("%-6s %13d %14d %12.2f %10.4f %9v\n", r.Mode, r.RedoneUnits, r.WarmRestarts, r.VirtualMS, r.Checksum, r.ChecksumOK)
	}
	if warm.RedoneUnits >= cold.RedoneUnits {
		return nil, fmt.Errorf("ckpt: warm restart redid %d units, cold %d — resume-from-checkpoint must redo strictly fewer",
			warm.RedoneUnits, cold.RedoneUnits)
	}
	if !warm.ChecksumOK {
		return nil, fmt.Errorf("ckpt: warm restart checksum %v does not match the fault-free reference %v",
			warm.Checksum, rt.Checksum)
	}
	if !cold.ChecksumOK {
		fmt.Println("(cold redo also corrupts the answer: the rotated Jacobi buffers no longer hold" +
			" the old units' inputs, so redoing them reads moved-on neighbour data — per-unit" +
			" checkpoints make node-local recovery consistent, not just cheap)")
	}
	fmt.Println("(every number is virtual-time exact and replay-stable)")
	return &ckptSnapshot{Roundtrip: rt, Restart: []bench.CkptRestart{warm, cold}}, nil
}

// bisect demonstrates divergence bisection: a deliberate trace perturbation
// is injected at -perturb, and a binary search over per-step fingerprints
// recovers the step from O(log n) probe runs.
func bisect(a *cliArgs) (any, error) {
	header("Divergence bisection: binary search for the first divergent pause point")
	res, err := bench.CkptBisectRun(a.perturb)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-28s %6d\n", "session steps", res.Steps)
	fmt.Printf("%-28s %6d\n", "perturbation injected at", res.InjectedStep)
	fmt.Printf("%-28s %6d\n", "first divergent pause point", res.FoundStep)
	fmt.Printf("%-28s %6d\n", "probe runs", res.Probes)
	if !res.Recovered {
		return nil, fmt.Errorf("bisect: found step %d does not match the injected step %d (+1)", res.FoundStep, res.InjectedStep)
	}
	fmt.Println("(the probe at step k replays the suspect run to pause point k and compares its")
	fmt.Println(" fingerprint to the reference ledger — a golden break is located without full traces)")
	return nil, nil
}

// tuneSeed is the pinned seed of the tune experiment. Fixing it (rather than
// taking a flag) keeps the committed BENCH_tune.json snapshot
// byte-identical across machines and runs: the grid's numbers are
// virtual-time exact.
const tuneSeed = 9

// tuneSnapshot is the BENCH_tune.json document: the report, which is a pure
// function of the workload, the seed and the grid subset, so the snapshot
// is byte-identical whatever the host parallelism.
type tuneSnapshot struct {
	snapHeader
	*tune.Report
}

// tuneExp sweeps the workload's configuration grid in parallel and prints
// the ranked cells. It fails (exit 1) unless the winning cell matches or
// beats the baseline cell's virtual elapsed time.
func tuneExp(a *cliArgs) (any, error) {
	rep, err := tune.Sweep(a.tuneWorkload, tuneSeed, tune.Options{
		Protocols:  axisList(a.tuneProtos),
		Topologies: axisList(a.tuneTopos),
		Placements: axisList(a.tunePlace),
	})
	if err != nil {
		return nil, err
	}
	header(fmt.Sprintf("Tune: what-if sweep of %s (seed %d), %d-cell grid", a.tuneWorkload, rep.Seed, rep.GridSize))
	fmt.Printf("%4s %-46s %8s %12s %10s %8s %6s %10s\n",
		"rank", "cell (protocol/topology/placement)", "correct", "elapsed(ms)", "envelopes", "remote", "migr", "p99(us)")
	for _, c := range rep.Cells {
		if !c.Correct {
			why := c.Err
			if why == "" {
				why = "wrong result"
			}
			fmt.Printf("%4d %-46s %8v  %s\n", c.Rank, c.Key(), false, why)
			continue
		}
		fmt.Printf("%4d %-46s %8v %12.3f %10d %8d %6d %10.1f\n",
			c.Rank, c.Key(), true, c.VirtualMS, c.Envelopes, c.RemoteFetches,
			c.HomeMigrations, float64(c.P99)/1e3)
	}
	if !rep.Winner.Correct {
		return nil, fmt.Errorf("no correct cell in the %d-cell grid", rep.GridSize)
	}
	fmt.Printf("winner: %s at %.3f ms vs baseline %s at %.3f ms (%.2fx)\n",
		rep.Winner.Key(), rep.Winner.VirtualMS, rep.Baseline.Key(), rep.Baseline.VirtualMS,
		rep.Baseline.VirtualMS/rep.Winner.VirtualMS)
	fmt.Println("(every cell is an independent deterministic re-simulation of the workload:")
	fmt.Println(" the numbers are virtual-time exact and the ranking is bit-identical across")
	fmt.Println(" worker counts)")
	if rep.Winner.VirtualMS > rep.Baseline.VirtualMS {
		return nil, fmt.Errorf("winner %s (%.3f ms) regresses vs the baseline %s (%.3f ms)",
			rep.Winner.Key(), rep.Winner.VirtualMS, rep.Baseline.Key(), rep.Baseline.VirtualMS)
	}
	return &tuneSnapshot{Report: rep}, nil
}

// faultResult is one protocol's outcome under the fault plan, the faults
// experiment's JSON row.
type faultResult struct {
	Protocol  string  `json:"protocol"`
	Completed bool    `json:"completed"`
	Correct   bool    `json:"correct"`
	Checksum  float64 `json:"checksum"`
	Expected  float64 `json:"expected"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Fingerprint is the run's TimingLog digest: identical across replays
	// of the same seed + plan.
	Fingerprint string               `json:"fingerprint"`
	Faults      dsmpm2.FaultStats    `json:"faults"`
	Recovery    dsmpm2.RecoveryStats `json:"recovery"`
	Error       string               `json:"error,omitempty"`
}

// faults runs the restart-aware jacobi kernel under a fault plan for each
// requested protocol on a hierarchical topology. The plan comes from
// -faultplan, from -mtbf/-repair (a generated exponential failure schedule,
// deterministic per -faultseed), or defaults to a pinned two-crash demo. It
// fails (exit 1), after the table or JSON, when a run ended in an error; a
// run that finished with a wrong checksum is reported, not fatal.
func faults(a *cliArgs) (any, error) {
	const gridN, iters = 24, 8
	nodes := a.nodes
	var plan *dsmpm2.FaultPlan
	var planDesc string
	switch {
	case a.faultPlan != "":
		p, err := dsmpm2.LoadFaultPlan(a.faultPlan)
		if err != nil {
			return nil, err
		}
		plan = p
		planDesc = fmt.Sprintf("file %s (%d events)", a.faultPlan, len(p.Events))
	case a.mtbf > 0:
		// Horizon sized to the workload: failures beyond the run's end
		// never fire. Node 0 is protected — it is the reliable home and
		// the synchronization manager.
		horizon := dsmpm2.Time(40 * dsmpm2.Millisecond)
		plan = dsmpm2.GenerateMTBFPlan(a.faultSeed, nodes, horizon,
			dsmpm2.Duration(a.mtbf*float64(dsmpm2.Millisecond)),
			dsmpm2.Duration(a.repair*float64(dsmpm2.Millisecond)), 0)
		planDesc = fmt.Sprintf("MTBF %.1fms repair %.1fms seed %d (%d events)",
			a.mtbf, a.repair, a.faultSeed, len(plan.Events))
	default:
		// checkFaults has held nodes >= 2: the demo never targets node 0.
		plan = dsmpm2.NewFaultPlan(a.faultSeed)
		crash1 := max(nodes/3, 1)
		crash2 := max((2*nodes)/3, crash1+1)
		plan.Crash(dsmpm2.Time(2*dsmpm2.Millisecond), crash1)
		plan.Restart(dsmpm2.Time(9*dsmpm2.Millisecond), crash1)
		if crash2 < nodes {
			plan.Crash(dsmpm2.Time(4*dsmpm2.Millisecond), crash2)
			plan.Restart(dsmpm2.Time(12*dsmpm2.Millisecond), crash2)
			planDesc = fmt.Sprintf("default demo: crash/restart nodes %d and %d", crash1, crash2)
		} else {
			planDesc = fmt.Sprintf("default demo: crash/restart node %d", crash1)
		}
	}
	intra, inter := dsmpm2.ResolveProfile(a.intra), dsmpm2.ResolveProfile(a.inter)
	if !a.json {
		header(fmt.Sprintf("Faults: restart-aware jacobi (%dx%d, %d sweeps), %d nodes in %d clusters",
			gridN, gridN, iters, nodes, a.clusters))
		fmt.Printf("plan: %s\n", planDesc)
	}
	expected := jacobi.SolveSerial(gridN, iters)
	protos := axisList(a.faultProtos)
	if protos == nil {
		protos = tune.Protocols
	}
	var results []faultResult
	var failed []string
	for _, proto := range protos {
		fr := faultResult{Protocol: proto, Expected: expected}
		res, err := jacobi.Run(jacobi.Config{
			N: gridN, Iterations: iters, Nodes: nodes,
			Network: dsmpm2.HierarchicalTopology(
				dsmpm2.EvenClusters(nodes, a.clusters), intra, inter),
			Protocol: proto, Seed: 7,
			FaultPlan: plan,
		})
		if err != nil {
			fr.Error = err.Error()
			failed = append(failed, proto)
		} else {
			fr.Completed = true
			fr.Checksum = res.Checksum
			fr.Correct = res.Checksum == expected
			fr.ElapsedMS = float64(res.Elapsed) / 1e6
			fr.Fingerprint = res.System.Fingerprint()
			fr.Faults = res.Faults
			fr.Recovery = res.Recovery
		}
		results = append(results, fr)
	}
	var err error
	if failed != nil {
		err = fmt.Errorf("run failed under %s", strings.Join(failed, ", "))
	}
	if a.json {
		return results, err
	}
	fmt.Printf("%-12s %10s %8s %12s %8s %9s %6s %5s %11s\n",
		"protocol", "completed", "correct", "elapsed(ms)", "crashes", "restarts", "held", "lost", "retransmits")
	for _, fr := range results {
		if fr.Error != "" {
			fmt.Printf("%-12s %10v %8s %12s  error: %s\n", fr.Protocol, false, "-", "-", fr.Error)
			continue
		}
		fmt.Printf("%-12s %10v %8v %12.2f %8d %9d %6d %5d %11d\n",
			fr.Protocol, fr.Completed, fr.Correct, fr.ElapsedMS,
			fr.Faults.Crashes, fr.Faults.Restarts, fr.Faults.Held,
			fr.Recovery.Lost, fr.Faults.Retransmits)
	}
	fmt.Println("(home-based protocols — hbrc_mw, entry_mw — keep committed data on the")
	fmt.Println(" protected home node 0 and recover exactly; ownership-migrating protocols")
	fmt.Println(" can lose sole copies that died with their owner, reported under 'lost')")
	return nil, err
}
