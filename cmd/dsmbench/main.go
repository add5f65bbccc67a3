// Command dsmbench regenerates every table and figure of the paper's
// evaluation (Section 4), printing the paper's numbers next to the measured
// ones.
//
//	dsmbench -exp all          # everything
//	dsmbench -exp table3       # read fault, page-migration policy
//	dsmbench -exp table4       # read fault, thread-migration policy
//	dsmbench -exp fig4         # TSP protocol comparison
//	dsmbench -exp fig5         # Java consistency comparison
//	dsmbench -exp rpc          # null RPC micro-latency (Section 2.1)
//	dsmbench -exp migration    # thread migration micro-latency (Section 2.1)
//	dsmbench -exp protocols    # the built-in protocol registry (Table 2)
//	dsmbench -exp multicluster # hierarchical topology: intra vs inter faults
//	dsmbench -exp contention   # link bandwidth occupancy: queueing delay
//	dsmbench -exp kernel       # simulator wall-clock efficiency (events/sec)
//	dsmbench -exp faults       # crash/restart fault plans on restart-aware jacobi
//	dsmbench -exp comm         # communication-module wire accounting
//	dsmbench -exp adapt        # sharing-pattern profiler + dynamic home migration
//	dsmbench -exp serve        # Zipf-serving KV store: per-op tail latency, static vs adaptive
//	dsmbench -exp tune         # what-if auto-tuner: record once, re-simulate the config grid
//
// The tune experiment (excluded from "all", like kernel) records one run of
// -tuneworkload (jacobi, matmul or serve), then re-simulates the whole
// configuration search space — {protocol x topology x placement} — as
// parallel host-level runs (-workers, default every host CPU) and prints the
// grid ranked by virtual elapsed time. Cell results are cached in -cachedir
// (default .tunecache) keyed by the recording's digests, so a repeated sweep
// re-runs nothing and reproduces the identical ranking. The grid can be
// subset with -tuneprotos/-tunetopos/-tuneplace (comma-separated; "all"
// keeps the axis). It exits non-zero if the winning cell fails to beat the
// recording baseline. With -json it writes the committed BENCH_tune.json
// snapshot, which deliberately omits worker and cache counters: sweeps are
// bit-identical whatever the host parallelism or cache state, and the
// snapshot stays byte-comparable.
//
// The comm experiment (excluded from "all", like kernel) runs jacobi,
// matmul and lu at 16-64 nodes and reports the wire accounting: messages,
// bytes and envelopes (a multi-part outbox envelope counts once), the DSM
// module's own counters, and the TimingLog.ByLink summaries. With -json it
// writes the committed BENCH_comm.json snapshot. All numbers are
// virtual-time exact and deterministic per seed.
//
// The adapt experiment (excluded from "all", like kernel) starts jacobi, lu
// and matmul at 16-64 nodes from deliberately misplaced homes (everything on
// node 0) and compares static placement against the online profiler's home
// migration: remote and misplaced fetch counts, completed migrations, diff
// traffic, and the per-epoch sharing-class histogram. With -json it writes
// the committed BENCH_adapt.json snapshot. All numbers are virtual-time
// exact and deterministic per seed.
//
// The serve experiment (excluded from "all", like kernel) drives the
// kvstore app — an open-loop Zipf trace with hot-key churn over per-bucket
// entry-consistency locks — twice from node-0-misplaced homes: once with
// that placement frozen, once with the profiler's home migration on. It
// reports per-operation latency digests (p50/p95/p99 from the core's
// fixed-grid histograms, deterministic per seed), the hot-key tally, and
// verifies both runs against the serial oracle plus a full replay of the
// adaptive run for histogram bit-identity. It exits non-zero unless the
// adaptive p99 beats the static one. With -json it writes the committed
// BENCH_serve.json snapshot.
//
// The faults experiment (excluded from "all", like kernel) runs the
// restart-aware jacobi kernel under a declarative fault plan and reports,
// per protocol, whether the run completed with sequentially-correct results
// and what the fault and recovery layers did. The plan comes from
// -faultplan (a JSON file), from -mtbf/-repair (a generated exponential
// failure schedule, deterministic per -faultseed), or defaults to a pinned
// two-crash demo. With -json the per-protocol results are printed as a JSON
// document instead of a table, e.g.
//
//	dsmbench -exp faults -nodes 16 -clusters 2 -mtbf 10 -repair 3 -json
//
// The multicluster experiment goes beyond the paper's uniform clusters: a
// hierarchical topology with a fast intra-cluster profile and a slow
// inter-cluster backbone, e.g.
//
//	dsmbench -topology hier -clusters 2 -intra SISCI/SCI -inter TCP/Ethernet
//
// The kernel experiment measures the simulator itself (not the simulated
// cluster): wall-clock events/sec, allocations per event and peak heap,
// against the committed pre-overhaul baseline. It then runs the host-scaling
// matrix: the 1,000-proc event storm on the parallel (sharded) kernel at
// shard counts 1,2,4,... up to -shards (default: the host's CPU count,
// floored at 2), reporting each row's throughput and speedup over the
// shards=1 serial baseline. Every BENCH_*.json snapshot records the host it
// was measured on (CPU count, GOMAXPROCS, Go version), so rows from
// different machines stay interpretable. With -json it writes the
// BENCH_kernel.json snapshot that tracks the perf trajectory; with
// -cpuprofile/-memprofile it captures pprof profiles of any experiment so a
// hot-path regression can be diagnosed without editing code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
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
// profile writers (log.Fatalf would os.Exit past pprof.StopCPUProfile and
// leave a truncated CPU profile).
func main() {
	os.Exit(realMain(os.Args[1:]))
}

// experiments is the valid -exp set; usage errors name it verbatim.
var experiments = []string{
	"all", "protocols", "rpc", "migration", "table3", "table4",
	"fig4", "fig4detail", "fig5", "multicluster", "contention",
	"kernel", "faults", "comm", "adapt", "serve", "ckpt", "bisect", "tune",
}

// cliArgs is the validated knob set; defaultArgs carries the flag defaults
// so tests can perturb one knob at a time.
type cliArgs struct {
	exp     string
	shards  int
	perturb int
	readers int
	// The tune experiment's knobs: the worker-pool size and the grid-subset
	// selectors (comma-separated axis values; "all"/"" keeps the whole axis).
	workers      int
	cacheDir     string
	tuneWorkload string
	tuneProtos   string
	tuneTopos    string
	tunePlace    string
}

// defaultArgs mirrors the flag defaults.
func defaultArgs(exp string) cliArgs {
	return cliArgs{exp: exp, perturb: 3, readers: 8, cacheDir: ".tunecache",
		tuneWorkload: "jacobi", tuneProtos: "all", tuneTopos: "all", tunePlace: "all"}
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

// checkAxis rejects a grid-subset selector naming an unknown axis value; the
// error names the valid set so a typo is self-correcting.
func checkAxis(flagName, csv string, valid []string) error {
	for _, v := range axisList(csv) {
		ok := false
		for _, w := range valid {
			if v == w {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("-%s %q is not a valid value (valid: %s, or all)",
				flagName, v, strings.Join(valid, ", "))
		}
	}
	return nil
}

// validateArgs rejects an unknown experiment or out-of-range knobs before
// anything runs, so a typo exits 2 with usage instead of silently running
// zero experiments or panicking mid-suite.
func validateArgs(a cliArgs) error {
	known := false
	for _, e := range experiments {
		if e == a.exp {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (valid: %s)", a.exp, strings.Join(experiments, ", "))
	}
	if a.shards < 0 {
		return fmt.Errorf("-shards %d out of range (want >= 0; 0 selects the host's CPU count)", a.shards)
	}
	// -shards caps the kernel experiment's host-scaling matrix and means
	// nothing to any other experiment.
	if a.shards > 0 && a.exp != "kernel" && a.exp != "all" {
		return fmt.Errorf("-shards %d is not valid with -exp %s (it caps the kernel experiment's host-scaling matrix; the simulated machine is one event loop)", a.shards, a.exp)
	}
	if a.exp == "tune" {
		if a.workers < 0 {
			return fmt.Errorf("-workers %d out of range (want >= 0; 0 uses every host CPU)", a.workers)
		}
		if fi, err := os.Stat(a.cacheDir); a.cacheDir != "" && err == nil && !fi.IsDir() {
			return fmt.Errorf("-cachedir %q exists and is not a directory", a.cacheDir)
		}
		okWl := false
		for _, w := range tune.Workloads {
			if a.tuneWorkload == w {
				okWl = true
				break
			}
		}
		if !okWl {
			return fmt.Errorf("-tuneworkload %q is not a recordable workload (valid: %s)",
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
	}
	if a.perturb < 1 {
		return fmt.Errorf("-perturb %d out of range (want >= 1: a session step index)", a.perturb)
	}
	if a.readers < 1 {
		return fmt.Errorf("-readers %d out of range (want >= 1 concurrent transfers)", a.readers)
	}
	return nil
}

func realMain(args []string) (code int) {
	fs := flag.NewFlagSet("dsmbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all,rpc,migration,table3,table4,fig4,fig5,protocols,multicluster,contention, or kernel/faults/comm/adapt/serve/ckpt/bisect/tune (explicit opt-in, excluded from all)")
	cities := fs.Int("cities", 11, "TSP cities for fig4 (paper: 14)")
	topology := fs.String("topology", "hier", "multicluster topology: hier")
	nodes := fs.Int("nodes", 8, "cluster size for multicluster")
	clusters := fs.Int("clusters", 2, "cluster count for -topology hier")
	intra := fs.String("intra", "SISCI/SCI", "intra-cluster profile for -topology hier")
	inter := fs.String("inter", "TCP/Fast Ethernet", "inter-cluster profile for -topology hier")
	readers := fs.Int("readers", 8, "concurrent transfers for the contention experiment")
	jsonOut := fs.Bool("json", false, "write BENCH_kernel.json (kernel) / print JSON results (faults)")
	faultPlanPath := fs.String("faultplan", "", "JSON fault plan file for the faults experiment")
	mtbf := fs.Float64("mtbf", 0, "generate a fault plan: mean time between failures per node (virtual ms)")
	repair := fs.Float64("repair", 3, "generated plans: node repair time (virtual ms)")
	faultSeed := fs.Int64("faultseed", 11, "seed for generated fault plans and message-loss draws")
	faultProtos := fs.String("faultproto", "hbrc_mw,entry_mw", "comma-separated protocols for the faults experiment")
	shards := fs.Int("shards", 0, "kernel: max shard count for the host-scaling matrix (0 = host CPUs, floored at 2)")
	perturb := fs.Int("perturb", 3, "bisect experiment: session step at which the deliberate divergence is injected")
	workers := fs.Int("workers", 0, "tune: host worker-pool size for the grid sweep (0 = every host CPU)")
	cacheDir := fs.String("cachedir", ".tunecache", "tune: cell-cache ledger directory (empty disables caching)")
	tuneWorkload := fs.String("tuneworkload", "jacobi", "tune: workload to record (jacobi, matmul, serve)")
	tuneProtos := fs.String("tuneprotos", "all", "tune: comma-separated protocol subset of the grid (all = every registered protocol)")
	tuneTopos := fs.String("tunetopos", "all", "tune: comma-separated topology subset (uniform, hier)")
	tunePlace := fs.String("tuneplace", "all", "tune: comma-separated placement subset (static, misplaced, adaptive)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cli := cliArgs{exp: *exp, shards: *shards, perturb: *perturb, readers: *readers,
		workers: *workers, cacheDir: *cacheDir, tuneWorkload: *tuneWorkload,
		tuneProtos: *tuneProtos, tuneTopos: *tuneTopos, tunePlace: *tunePlace}
	if err := validateArgs(cli); err != nil {
		fmt.Fprintf(os.Stderr, "dsmbench: %v\n", err)
		fs.Usage()
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
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

	run := func(name string) bool { return *exp == "all" || *exp == name }
	if run("protocols") {
		protocolsTable()
	}
	if run("rpc") {
		rpcTable()
	}
	if run("migration") {
		migrationTable()
	}
	if run("table3") {
		table3()
	}
	if run("table4") {
		table4()
	}
	if run("fig4") {
		figure4(*cities)
	}
	if run("fig4detail") {
		figure4Detail(*cities)
	}
	if run("fig5") {
		figure5()
	}
	if run("multicluster") {
		multicluster(*topology, *nodes, *clusters, *intra, *inter)
	}
	if run("contention") {
		contention(*readers)
	}
	if *exp == "kernel" { // wall-clock heavy: explicit opt-in, not part of "all"
		if err := kernel(*jsonOut, *shards); err != nil {
			log.Printf("kernel: %v", err)
			return 1
		}
	}
	if *exp == "faults" { // explicit opt-in, not part of "all"
		if err := faults(*faultPlanPath, *mtbf, *repair, *faultSeed,
			*faultProtos, *nodes, *clusters, *intra, *inter, *jsonOut); err != nil {
			log.Printf("faults: %v", err)
			return 1
		}
	}
	if *exp == "comm" { // explicit opt-in, not part of "all"
		if err := comm(*jsonOut); err != nil {
			log.Printf("comm: %v", err)
			return 1
		}
	}
	if *exp == "adapt" { // explicit opt-in, not part of "all"
		if err := adapt(*jsonOut); err != nil {
			log.Printf("adapt: %v", err)
			return 1
		}
	}
	if *exp == "serve" { // explicit opt-in, not part of "all"
		if err := serve(*jsonOut); err != nil {
			log.Printf("serve: %v", err)
			return 1
		}
	}
	if *exp == "ckpt" { // explicit opt-in, not part of "all"
		if err := ckpt(*jsonOut); err != nil {
			log.Printf("ckpt: %v", err)
			return 1
		}
	}
	if *exp == "bisect" { // explicit opt-in, not part of "all"
		if err := bisect(*perturb); err != nil {
			log.Printf("bisect: %v", err)
			return 1
		}
	}
	if *exp == "tune" { // explicit opt-in, not part of "all"
		opts := tune.Options{
			Workers: *workers, CacheDir: *cacheDir,
			Protocols:  axisList(*tuneProtos),
			Topologies: axisList(*tuneTopos),
			Placements: axisList(*tunePlace),
		}
		if err := tuneExp(*jsonOut, *tuneWorkload, opts); err != nil {
			log.Printf("tune: %v", err)
			return 1
		}
	}
	return 0
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func protocolsTable() {
	header("Table 2: built-in consistency protocols")
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	fmt.Printf("%-16s\n", "protocol")
	for _, name := range sys.ProtocolNames() {
		fmt.Printf("%-16s\n", name)
	}
}

func rpcTable() {
	header("Section 2.1: null RPC latency (us)")
	fmt.Printf("%-20s %10s %10s\n", "network", "paper", "measured")
	paper := map[string]string{"BIP/Myrinet": "8", "SISCI/SCI": "6", "TCP/Myrinet": "-", "TCP/Fast Ethernet": "-"}
	for _, prof := range dsmpm2.Networks {
		us := bench.NullRPC(prof)
		fmt.Printf("%-20s %10s %10.0f\n", prof.Name, paper[prof.Name], us)
	}
}

func migrationTable() {
	header("Section 2.1: minimal-thread migration latency (us)")
	fmt.Printf("%-20s %10s %10s\n", "network", "paper", "measured")
	paper := map[string]string{"BIP/Myrinet": "75", "SISCI/SCI": "62", "TCP/Myrinet": "280", "TCP/Fast Ethernet": "373"}
	for _, prof := range dsmpm2.Networks {
		us := bench.Migration(prof)
		fmt.Printf("%-20s %10s %10.0f\n", prof.Name, paper[prof.Name], us)
	}
}

func table3() {
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
		cell := func(paperV int, got float64) string {
			return fmt.Sprintf("%d / %.0f", paperV, got)
		}
		fmt.Printf("%-20s %22s %22s %22s %22s %22s\n", prof.Name,
			cell(p[0], ft.Detect.Microseconds()),
			cell(p[1], ft.Request.Microseconds()),
			cell(p[2], ft.Transfer.Microseconds()),
			cell(p[3], ft.ProtocolOverhead().Microseconds()),
			cell(p[4], ft.Total.Microseconds()))
	}
	fmt.Println("(cells are paper / measured)")
}

func table4() {
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
		cell := func(paperV int, got float64) string {
			return fmt.Sprintf("%d / %.0f", paperV, got)
		}
		fmt.Printf("%-20s %22s %22s %22s %22s\n", prof.Name,
			cell(p[0], ft.Detect.Microseconds()),
			cell(p[1], ft.Migration.Microseconds()),
			cell(p[2], ft.Overhead.Microseconds()),
			cell(p[3], ft.Total.Microseconds()))
	}
	fmt.Println("(cells are paper / measured)")
}

func figure4(cities int) {
	header(fmt.Sprintf("Figure 4: TSP (%d cities, random distances), BIP/Myrinet", cities))
	serial := tsp.SolveSerial(tsp.Distances(cities, 42))
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
				Cities: cities, Seed: 42, Nodes: n,
				Network: dsmpm2.BIPMyrinet, Protocol: proto,
			})
			if err != nil {
				log.Fatalf("[%s/%d] %v", proto, n, err)
			}
			if res.BestCost != serial {
				log.Fatalf("[%s/%d] wrong optimum %d", proto, n, res.BestCost)
			}
			fmt.Printf(" %13.2f", float64(res.Elapsed)/1e6)
		}
		fmt.Println()
	}
	fmt.Println("expected shape: page-based protocols beat migrate_thread (owner overload)")
}

// figure4Detail explains Figure 4's shape: per-node CPU occupancy and
// migration counts for the page-based winner vs migrate_thread.
func figure4Detail(cities int) {
	header("Figure 4 detail: why migrate_thread loses (4 nodes)")
	for _, proto := range []string{"li_hudak", "migrate_thread"} {
		res, err := tsp.Run(tsp.Config{
			Cities: cities, Seed: 42, Nodes: 4,
			Network: dsmpm2.BIPMyrinet, Protocol: proto,
		})
		if err != nil {
			log.Fatal(err)
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
}

func figure5() {
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
				log.Fatalf("[%s/%d] %v", proto, th, err)
			}
			if res.BestCost != serial {
				log.Fatalf("[%s/%d] wrong optimum %d", proto, th, res.BestCost)
			}
			fmt.Printf(" %16.2f", float64(res.Elapsed)/1e6)
		}
		fmt.Println()
	}
	fmt.Println("expected shape: java_pf outperforms java_ic (page faults beat inline checks)")
}

// resolveProfile turns a -intra/-inter flag value into a profile or exits
// with the list of valid names.
func resolveProfile(flagName, name string) *dsmpm2.NetworkProfile {
	p := dsmpm2.ResolveProfile(name)
	if p == nil {
		fmt.Fprintf(os.Stderr, "unknown -%s profile %q (have %v plus aliases like TCP/Ethernet, SCI)\n",
			flagName, name, madeleine.ProfileNames())
		os.Exit(2)
	}
	return p
}

// multicluster measures remote read faults across a heterogeneous topology
// and reports the per-link-class cost split the uniform paper setup cannot
// express.
func multicluster(topology string, nodes, clusters int, intraName, interName string) {
	if topology != "hier" {
		fmt.Fprintf(os.Stderr, "unknown -topology %q (have: hier)\n", topology)
		os.Exit(2)
	}
	if nodes < 1 || clusters < 1 {
		fmt.Fprintf(os.Stderr, "invalid layout: -nodes %d -clusters %d (both must be >= 1)\n", nodes, clusters)
		os.Exit(2)
	}
	intra := resolveProfile("intra", intraName)
	inter := resolveProfile("inter", interName)
	header(fmt.Sprintf("Multicluster: %d nodes in %d clusters, %s inside / %s between",
		nodes, clusters, intra.Name, inter.Name))
	faults := bench.HierReadFaults(nodes, clusters, intra, inter, "li_hudak")
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
}

// benchKernelFile is the perf-trajectory snapshot the kernel experiment
// writes with -json.
const benchKernelFile = "BENCH_kernel.json"

// kernelSnapshot is the BENCH_kernel.json document: the committed baseline
// (pre-overhaul kernel) next to the numbers measured by this run.
type kernelSnapshot struct {
	Experiment string `json:"experiment"`
	// Host is the machine these Current/Sharded numbers were measured on.
	Host bench.HostMeta `json:"host"`
	// Baseline is the pre-overhaul kernel (container/heap, boxed events,
	// double switch per wake, unpooled pages/messages).
	Baseline []bench.KernelResult `json:"baseline"`
	// Current is this binary, measured now on this machine.
	Current []bench.KernelResult `json:"current"`
	// Sharded is the host-scaling matrix: the 1,000-proc event storm on the
	// parallel kernel at increasing shard counts, shards=1 first (the serial
	// baseline for speedups).
	Sharded []bench.KernelResult `json:"sharded"`
}

// kernel measures the simulator's own wall-clock efficiency and compares it
// against the committed pre-overhaul baseline, then runs the host-scaling
// matrix of the parallel (sharded) kernel.
func kernel(writeJSON bool, maxShards int) error {
	header("Kernel: simulator wall-clock efficiency (baseline = pre-overhaul kernel)")
	base := bench.KernelBaseline()
	baseByName := map[string]bench.KernelResult{}
	for _, r := range base {
		baseByName[r.Name] = r
	}
	cur := bench.KernelSuite()
	fmt.Printf("%-36s %14s %14s %8s %14s %14s\n",
		"scenario", "base ev/s", "now ev/s", "speedup", "base allocs/ev", "now allocs/ev")
	for _, r := range cur {
		b, ok := baseByName[r.Name]
		if !ok {
			fmt.Printf("%-36s %14s %14.0f %8s %14s %14.4f\n",
				r.Name, "-", r.EventsPerSec, "-", "-", r.AllocsPerEvent)
			continue
		}
		fmt.Printf("%-36s %14.0f %14.0f %7.2fx %14.4f %14.4f\n",
			r.Name, b.EventsPerSec, r.EventsPerSec, r.EventsPerSec/b.EventsPerSec,
			b.AllocsPerEvent, r.AllocsPerEvent)
	}
	fmt.Println("(events/sec is wall-clock; virtual timings are identical across kernels,")
	fmt.Println(" see the golden-trace test. Baseline numbers are fixed in internal/bench.)")
	fmt.Printf("\n%-36s %10s %8s %9s %8s %14s %10s %10s %10s %8s\n",
		"event queue traffic", "pushes", "at-now", "new-run", "joined", "deadlines l/i", "peak heap",
		"resumes", "self-wakes", "drains")
	for _, r := range cur {
		q := r.Queue
		pushes := q.AtNow + q.NewRun + q.Joined
		pct := func(n uint64) float64 { return 100 * float64(n) / float64(max(pushes, 1)) }
		fmt.Printf("%-36s %10d %7.1f%% %8.1f%% %7.1f%% %14s %10d %10d %10d %8d\n", r.Name, pushes,
			pct(q.AtNow), pct(q.NewRun), pct(q.Joined),
			fmt.Sprintf("%d/%d", q.DeadlineLive, q.DeadlineInert), q.PeakHeap,
			q.Resumes, q.SelfWakes, q.Drains)
	}
	fmt.Println("(at-now pushes append to the now-ring; a new-run push is a heap insert, a joined")
	fmt.Println(" one a ring append; deadlines l/i = timed-wait records fired live / inert; resumes =")
	fmt.Println(" coroutine resumes by the event loop, two switches each; self-wakes = wake records a")
	fmt.Println(" yielding proc consumed without a switch; drains = bursts handed to a bound channel's sink)")

	host := bench.Host()
	header(fmt.Sprintf("Kernel: host-scaling matrix (parallel kernel; host: %d CPUs, GOMAXPROCS=%d, %s)",
		host.CPUs, host.GOMAXPROCS, host.GoVersion))
	sharded := bench.KernelScalingSuite(bench.ScalingShards(maxShards))
	fmt.Printf("%-48s %12s %14s %8s\n", "scenario", "wall(ms)", "ev/s", "speedup")
	for i, r := range sharded {
		speedup := "-"
		if i > 0 && sharded[0].WallMS > 0 {
			speedup = fmt.Sprintf("%.2fx", sharded[0].WallMS/r.WallMS)
		}
		fmt.Printf("%-48s %12.2f %14.0f %8s\n", r.Name, r.WallMS, r.EventsPerSec, speedup)
	}
	fmt.Println("(speedup is wall-clock vs the shards=1 row of this same run; the virtual")
	fmt.Println(" schedule is identical for every shard count. Scaling needs free host cores:")
	fmt.Println(" on a single-core host the sharded rows only measure synchronization cost.)")
	if !writeJSON {
		return nil
	}
	snap := kernelSnapshot{Experiment: "kernel", Host: host, Baseline: base, Current: cur, Sharded: sharded}
	f, err := os.Create(benchKernelFile)
	if err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	fmt.Printf("wrote %s\n", benchKernelFile)
	return nil
}

// benchCommFile is the wire-accounting snapshot the comm experiment writes
// with -json.
const benchCommFile = "BENCH_comm.json"

// commSnapshot is the BENCH_comm.json document.
type commSnapshot struct {
	Experiment string `json:"experiment"`
	// Host is the machine this snapshot was taken on (the numbers are
	// virtual-time exact, but the provenance keeps snapshots comparable).
	Host    bench.HostMeta     `json:"host"`
	Results []bench.CommResult `json:"results"`
}

// comm reports the communication module's wire accounting across the
// barrier-phased applications at cluster scale, then runs the scale rows:
// jacobi on the 8-cluster hierarchical topology at 64 and 512 nodes,
// reporting the per-barrier backbone envelope cost.
func comm(writeJSON bool) error {
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
			r.BackboneEnvelopes, r.BarrierGens, r.BackbonePerBarrier)
	}
	fmt.Println("(backbone/bar subtracts the remote page-fetch pairs; what remains is the")
	fmt.Println(" synchronization traffic: every non-home arrival crosses the backbone, O(N)")
	fmt.Println(" per generation)")
	if !writeJSON {
		return nil
	}
	snap := commSnapshot{Experiment: "comm", Host: bench.Host(), Results: results}
	f, err := os.Create(benchCommFile)
	if err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	fmt.Printf("wrote %s\n", benchCommFile)
	return nil
}

// benchAdaptFile is the placement-accounting snapshot the adapt experiment
// writes with -json.
const benchAdaptFile = "BENCH_adapt.json"

// adaptSnapshot is the BENCH_adapt.json document.
type adaptSnapshot struct {
	Experiment string `json:"experiment"`
	// Host is the machine this snapshot was taken on.
	Host    bench.HostMeta      `json:"host"`
	Results []bench.AdaptResult `json:"results"`
}

// adapt compares static (misplaced) page placement against the online
// profiler's dynamic home migration across the barrier-phased applications.
func adapt(writeJSON bool) error {
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
	if !writeJSON {
		return nil
	}
	snap := adaptSnapshot{Experiment: "adapt", Host: bench.Host(), Results: results}
	f, err := os.Create(benchAdaptFile)
	if err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	fmt.Printf("wrote %s\n", benchAdaptFile)
	return nil
}

// benchServeFile is the tail-latency snapshot the serve experiment writes
// with -json.
const benchServeFile = "BENCH_serve.json"

// serveSnapshot is the BENCH_serve.json document.
type serveSnapshot struct {
	Experiment string `json:"experiment"`
	// Host is the machine this snapshot was taken on.
	Host   bench.HostMeta    `json:"host"`
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
func serve(writeJSON bool) error {
	header("Serve: Zipf KV store tail latency, static (misplaced) vs adaptive homes")
	static, adaptive, replayOK, err := bench.ServeSuite()
	if err != nil {
		return err
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
		return fmt.Errorf("adaptive get p99 %v did not beat static %v", ap99, sp99)
	}
	if !replayOK {
		return fmt.Errorf("replayed adaptive run diverged from the first (histograms not bit-identical)")
	}
	if !writeJSON {
		return nil
	}
	snap := serveSnapshot{Experiment: "serve", Host: bench.Host(),
		Static: static, Adaptive: adaptive, ReplayIdentical: replayOK}
	f, err := os.Create(benchServeFile)
	if err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	fmt.Printf("wrote %s\n", benchServeFile)
	return nil
}

// benchCkptFile is the checkpoint/restore snapshot the ckpt experiment
// writes with -json.
const benchCkptFile = "BENCH_ckpt.json"

// ckptSnapshot is the BENCH_ckpt.json document.
type ckptSnapshot struct {
	Experiment string         `json:"experiment"`
	Host       bench.HostMeta `json:"host"`
	// Roundtrip sweeps the restore property over every safe point.
	Roundtrip bench.CkptRoundtrip `json:"roundtrip"`
	// Restart compares warm (resume-from-checkpoint) against cold
	// (redo-from-scratch) crash recovery on the faulty-jacobi plan; the
	// acceptance headline is warm.redone_units < cold.redone_units.
	Restart []bench.CkptRestart `json:"restart"`
	// FastForward is the warm-started run: resume a mid-run snapshot and
	// skip the ramp-up.
	FastForward bench.CkptFastForward `json:"fast_forward"`
}

// ckpt runs the checkpoint/restore experiment suite.
func ckpt(writeJSON bool) error {
	header("Checkpoint/restore: round-trip sweep, warm vs cold crash-restart, fast-forward")
	rt, err := bench.CkptRoundtripSweep()
	if err != nil {
		return err
	}
	fmt.Printf("round-trip: %d/%d safe points restored bit-identically (%d mismatches), snapshot <= %d bytes\n",
		rt.Swept-rt.Mismatches, rt.Swept, rt.Mismatches, rt.SnapshotBytes)
	if rt.Mismatches > 0 {
		return fmt.Errorf("ckpt: %d of %d sweep points diverged after restore", rt.Mismatches, rt.Swept)
	}

	warm, cold, err := bench.CkptRestartCompare()
	if err != nil {
		return err
	}
	warm.ChecksumOK = warm.Checksum == rt.Checksum
	cold.ChecksumOK = cold.Checksum == rt.Checksum
	fmt.Printf("%-6s %13s %14s %12s %10s %9s\n", "mode", "redone units", "warm restarts", "elapsed(ms)", "checksum", "correct")
	for _, r := range []bench.CkptRestart{warm, cold} {
		fmt.Printf("%-6s %13d %14d %12.2f %10.4f %9v\n", r.Mode, r.RedoneUnits, r.WarmRestarts, r.VirtualMS, r.Checksum, r.ChecksumOK)
	}
	if warm.RedoneUnits >= cold.RedoneUnits {
		return fmt.Errorf("ckpt: warm restart redid %d units, cold %d — resume-from-checkpoint must redo strictly fewer",
			warm.RedoneUnits, cold.RedoneUnits)
	}
	if !warm.ChecksumOK {
		return fmt.Errorf("ckpt: warm restart checksum %v does not match the fault-free reference %v",
			warm.Checksum, rt.Checksum)
	}
	if !cold.ChecksumOK {
		fmt.Println("(cold redo also corrupts the answer: the rotated Jacobi buffers no longer hold" +
			" the old units' inputs, so redoing them reads moved-on neighbour data — per-unit" +
			" checkpoints make node-local recovery consistent, not just cheap)")
	}

	ff, err := bench.CkptFastForwardRun()
	if err != nil {
		return err
	}
	fmt.Printf("fast-forward: resume at step %d (skipping %d committed units): %.1f ms host wall vs %.1f ms from scratch\n",
		ff.ResumeStep, ff.UnitsSkipped, ff.ResumeWallMS, ff.FullWallMS)
	fmt.Println("(every number but the host wall times is virtual-time exact and replay-stable)")

	if !writeJSON {
		return nil
	}
	snap := ckptSnapshot{Experiment: "ckpt", Host: bench.Host(),
		Roundtrip: rt, Restart: []bench.CkptRestart{warm, cold}, FastForward: ff}
	f, err := os.Create(benchCkptFile)
	if err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	fmt.Printf("wrote %s\n", benchCkptFile)
	return nil
}

// bisect demonstrates divergence bisection: a deliberate trace perturbation
// is injected at -perturb, and a binary search over per-step fingerprints
// recovers the step from O(log n) probe runs.
func bisect(perturbStep int) error {
	header("Divergence bisection: binary search for the first divergent safe point")
	res, err := bench.CkptBisectRun(perturbStep)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %6d\n", "session steps", res.Steps)
	fmt.Printf("%-28s %6d\n", "perturbation injected at", res.InjectedStep)
	fmt.Printf("%-28s %6d\n", "first divergent safe point", res.FoundStep)
	fmt.Printf("%-28s %6d\n", "probe runs", res.Probes)
	if !res.Recovered {
		return fmt.Errorf("bisect: found step %d does not match the injected step %d (+1)", res.FoundStep, res.InjectedStep)
	}
	fmt.Println("(the probe at step k replays the suspect run to safe point k and compares its")
	fmt.Println(" fingerprint to the reference ledger — a golden break is located without full traces)")
	return nil
}

// benchTuneFile is the ranked-grid snapshot the tune experiment writes with
// -json.
const benchTuneFile = "BENCH_tune.json"

// tuneSnapshot is the BENCH_tune.json document. It deliberately carries no
// worker-pool size and no ran/cached cell split: the ranking is a pure
// function of the recording and the grid subset, so the snapshot must be
// byte-identical whatever the host parallelism or cache state. Only the
// host stanza records where the sweep happened.
type tuneSnapshot struct {
	Experiment string         `json:"experiment"`
	Host       bench.HostMeta `json:"host"`
	// Workload/Seed/digests identify the recording the grid re-simulated.
	Workload       string `json:"workload"`
	Seed           int64  `json:"seed"`
	ConfigDigest   string `json:"config_digest"`
	WorkloadDigest string `json:"workload_digest"`
	GridSize       int    `json:"grid_size"`
	// Baseline is the recording run's own cell; Winner must beat it.
	Baseline tune.CellResult   `json:"baseline"`
	Winner   tune.CellResult   `json:"winner"`
	Prior    dsmpm2.TunedPrior `json:"prior"`
	Cells    []tune.CellResult `json:"cells"`
}

// tuneExp records the workload once, sweeps the configuration grid in
// parallel, and prints the ranked cells. It fails (exit 1) unless the
// winning cell strictly matches or beats the recording baseline's virtual
// elapsed time.
func tuneExp(writeJSON bool, workload string, opts tune.Options) error {
	rec, rep, err := bench.TuneSuite(workload, opts)
	if err != nil {
		return err
	}
	header(fmt.Sprintf("Tune: what-if sweep of %s (seed %d), %d-cell grid", workload, rec.Seed, rep.GridSize))
	fmt.Printf("recording: baseline %s, fingerprint %.16s..., workload digest %.16s...\n",
		rec.Baseline.Key(), rec.Fingerprint, rec.WorkloadDigest)
	fmt.Printf("sweep: %d cells ran, %d served from the cache ledger\n", rep.RanCells, rep.CachedCells)
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
		return fmt.Errorf("no correct cell in the %d-cell grid", rep.GridSize)
	}
	fmt.Printf("winner: %s at %.3f ms vs baseline %s at %.3f ms (%.2fx)\n",
		rep.Winner.Key(), rep.Winner.VirtualMS, rep.Baseline.Key(), rep.Baseline.VirtualMS,
		rep.Baseline.VirtualMS/rep.Winner.VirtualMS)
	fmt.Printf("prior: protocol=%s placement=%s (feed back via Config.TunedPrior)\n",
		rep.Prior.Protocol, rep.Prior.Placement)
	fmt.Println("(every cell is an independent deterministic re-simulation of the recorded")
	fmt.Println(" workload: the numbers are virtual-time exact, the ranking is bit-identical")
	fmt.Println(" across worker counts, and cached cells replay from the ledger unchanged)")
	if rep.Winner.VirtualMS > rep.Baseline.VirtualMS {
		return fmt.Errorf("winner %s (%.3f ms) regresses vs the recording baseline %s (%.3f ms)",
			rep.Winner.Key(), rep.Winner.VirtualMS, rep.Baseline.Key(), rep.Baseline.VirtualMS)
	}
	if !writeJSON {
		return nil
	}
	snap := tuneSnapshot{Experiment: "tune", Host: bench.Host(),
		Workload: rep.Workload, Seed: rep.Seed,
		ConfigDigest: rep.ConfigDigest, WorkloadDigest: rep.WorkloadDigest,
		GridSize: rep.GridSize, Baseline: rep.Baseline, Winner: rep.Winner,
		Prior: rep.Prior, Cells: rep.Cells}
	f, err := os.Create(benchTuneFile)
	if err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("-json: %w", err)
	}
	fmt.Printf("wrote %s\n", benchTuneFile)
	return nil
}

// contention shows the link occupancy model: concurrent page transfers over
// one saturated link serialize in virtual time.
func contention(readers int) {
	header(fmt.Sprintf("Link contention: %d concurrent 4 KiB transfers over one BIP/Myrinet link", readers))
	res := bench.Contention(dsmpm2.BIPMyrinet, readers)
	fmt.Printf("%-34s %12.0f\n", "mean fault, contention off (us)", res.MeanFaultOffUS)
	fmt.Printf("%-34s %12.0f\n", "mean fault, contention on  (us)", res.MeanFaultOnUS)
	fmt.Printf("%-34s %12d\n", "messages queued on busy link", res.Waits)
	fmt.Printf("%-34s %12.0f\n", "total queueing delay (us)", res.WaitTimeUS)
	fmt.Println("(off: transfers overlap for free; on: FIFO serialization per link)")
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
// requested protocol on a hierarchical topology.
func faults(planPath string, mtbfMS, repairMS float64, seed int64, protos string,
	nodes, clusters int, intraName, interName string, jsonOut bool) error {
	const gridN, iters = 24, 8
	var plan *dsmpm2.FaultPlan
	var planDesc string
	switch {
	case planPath != "":
		p, err := dsmpm2.LoadFaultPlan(planPath)
		if err != nil {
			return err
		}
		plan = p
		planDesc = fmt.Sprintf("file %s (%d events)", planPath, len(p.Events))
	case mtbfMS > 0:
		// Horizon sized to the workload: failures beyond the run's end
		// never fire. Node 0 is protected — it is the reliable home and
		// the synchronization manager.
		horizon := dsmpm2.Time(40 * dsmpm2.Millisecond)
		plan = dsmpm2.GenerateMTBFPlan(seed, nodes, horizon,
			dsmpm2.Duration(mtbfMS*float64(dsmpm2.Millisecond)),
			dsmpm2.Duration(repairMS*float64(dsmpm2.Millisecond)), 0)
		planDesc = fmt.Sprintf("MTBF %.1fms repair %.1fms seed %d (%d events)",
			mtbfMS, repairMS, seed, len(plan.Events))
	default:
		// Node 0 is the protected home and synchronization manager: the
		// demo plan must never target it.
		if nodes < 2 {
			return fmt.Errorf("the demo plan needs -nodes >= 2 (node 0 is protected)")
		}
		plan = dsmpm2.NewFaultPlan(seed)
		crash1, crash2 := nodes/3, (2*nodes)/3
		if crash1 < 1 {
			crash1 = 1
		}
		if crash2 <= crash1 {
			crash2 = crash1 + 1
		}
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
	intra := resolveProfile("intra", intraName)
	inter := resolveProfile("inter", interName)
	if !jsonOut {
		header(fmt.Sprintf("Faults: restart-aware jacobi (%dx%d, %d sweeps), %d nodes in %d clusters",
			gridN, gridN, iters, nodes, clusters))
		fmt.Printf("plan: %s\n", planDesc)
	}
	expected := jacobi.SolveSerial(gridN, iters)
	var results []faultResult
	for _, proto := range strings.Split(protos, ",") {
		proto = strings.TrimSpace(proto)
		if proto == "" {
			continue
		}
		fr := faultResult{Protocol: proto, Expected: expected}
		res, err := jacobi.Run(jacobi.Config{
			N: gridN, Iterations: iters, Nodes: nodes,
			Topology: dsmpm2.HierarchicalTopology(
				dsmpm2.EvenClusters(nodes, clusters), intra, inter),
			Protocol: proto, Seed: 7,
			FaultPlan: plan,
		})
		if err != nil {
			fr.Error = err.Error()
		} else {
			fr.Completed = true
			fr.Checksum = res.Checksum
			fr.Correct = res.Checksum == expected
			fr.ElapsedMS = float64(res.Elapsed) / 1e6
			fr.Fingerprint = bench.TraceFingerprint(res.System)
			fr.Faults = res.Faults
			fr.Recovery = res.Recovery
		}
		results = append(results, fr)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	fmt.Printf("%-12s %10s %8s %12s %8s %9s %6s %5s %8s\n",
		"protocol", "completed", "correct", "elapsed(ms)", "crashes", "restarts", "held", "lost", "retries")
	for _, fr := range results {
		if fr.Error != "" {
			fmt.Printf("%-12s %10v %8s %12s  error: %s\n", fr.Protocol, false, "-", "-", fr.Error)
			continue
		}
		fmt.Printf("%-12s %10v %8v %12.2f %8d %9d %6d %5d %8d\n",
			fr.Protocol, fr.Completed, fr.Correct, fr.ElapsedMS,
			fr.Faults.Crashes, fr.Faults.Restarts, fr.Faults.Held,
			fr.Recovery.Lost, fr.Recovery.Retries)
	}
	fmt.Println("(home-based protocols — hbrc_mw, entry_mw — keep committed data on the")
	fmt.Println(" protected home node 0 and recover exactly; ownership-migrating protocols")
	fmt.Println(" can lose sole copies that died with their owner, reported under 'lost')")
	return nil
}
