// Command dsmperf is the repository's host-performance ledger: four long
// workloads, each timed in fresh processes exactly as a user's one-shot run,
// with per-layer attribution taken from outside the program (a sampled CPU
// profile, an exact allocation profile, the layers' own counters, and probes
// over each layer's public functions). See README.md beside this file.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload <jacobi|tsp|kvserve|faultstorm|all>
//	    [--seed 1] [--seconds 28] [--trace 0|1] [--json out.json]
//	bash benchmark/run.sh --compare old.json new.json
//
// It exits non-zero if any output is wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsmpm2/internal/bench"
)

const (
	specPath = "BENCHMARK.json" // resolved from the repository root, where the command runs
	outDir   = "benchmark/out"
	// minReps is the fewest fresh-process repetitions a median is taken
	// over, however short the time budget.
	minReps = 3
	// A traced run gives a third of its budget to untraced children (the
	// base of bench.trace_overhead_pct) and a third to CPU-profiled ones,
	// at least minTracedReps each; the allocation-profiled child and the
	// probe child take about the last third.
	minTracedReps = 2
	// childTimeout bounds one child; a healthy one takes 3 to 15 s.
	childTimeout = 150 * time.Second
)

// A metric of one row, reported as its median over repetitions.
type rowMetric struct {
	name, unit string
	get        func(r *row) float64
}

// endToEnd are the metrics a user of the simulator sees; lower is better
// for all of them. BENCHMARK.json carries their regression bounds. The three
// times are seconds at the reference host speed (see hostref.go).
var endToEnd = []rowMetric{
	{"wall_s", "s", func(r *row) float64 { return r.atRefSpeed(r.WallS) }},
	{"cpu_s", "s", func(r *row) float64 { return r.atRefSpeed(r.CPUS) }},
	{"setup_s", "s", func(r *row) float64 { return r.atRefSpeed(r.SetupS) }},
	{"peak_rss_mb", "MB", func(r *row) float64 { return r.PeakRSSMB }},
	{"retained_mb", "MB", func(r *row) float64 { return r.RetainedMB }},
	{"allocs_per_op", "1/op", func(r *row) float64 { return float64(r.Allocs) / float64(r.Ops) }},
	{"alloc_mb", "MB", func(r *row) float64 { return r.AllocMB }},
}

// exact are the simulated results: identical across repetitions of a seed,
// so they are compared for equality, not within a bound.
var exact = []rowMetric{
	{"virt_ms", "virtual_ms", func(r *row) float64 { return r.VirtMS }},
	{"virt_p99_us", "virtual_us", func(r *row) float64 { return r.VirtP99US }},
	{"paper_err_pct", "%", func(r *row) float64 { return r.PaperErrPct }},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A workloadReport is everything one invocation measured for one workload.
type workloadReport struct {
	Name      string   `json:"name"`
	Seed      int64    `json:"seed"`
	Ops       int64    `json:"ops"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed_ops"`
	Errors    []string `json:"errors,omitempty"`

	EndToEnd map[string]summary `json:"end_to_end"`
	// Host holds what the clock read before conversion to the reference
	// speed: the reference's own time next to each child (ref_s) and the
	// children's wall seconds as measured (raw_wall_s).
	Host map[string]summary `json:"host"`
	// Exact holds the simulated results and the work counts.
	Exact map[string]float64 `json:"exact"`
	// PerLayer is filled by traced runs only.
	PerLayer map[string]value `json:"per_layer,omitempty"`
}

type report struct {
	Host      bench.HostMeta    `json:"host"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

func (wr *workloadReport) fail(ops int64, format string, args ...any) {
	wr.Failed += ops
	wr.Errors = append(wr.Errors, fmt.Sprintf(format, args...))
}

// spawn runs one child to completion and returns its row. One child at a
// time: the parent only waits, so the child has the host to itself. The
// child is killed when ctx ends (an interrupted parent leaves none behind).
func spawn(ctx context.Context, mode, name string, seed int64) (row, error) {
	self, err := os.Executable()
	if err != nil {
		return row{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-child", mode, "-workload", name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return row{}, fmt.Errorf("%s child of %s: %w", mode, name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var r row
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return row{}, fmt.Errorf("%s child of %s: %w", mode, name, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return r, nil
}

// repeat spawns children of one mode until the budget is spent, at least
// atLeast of them, and starts another only if one as long as the previous
// would still end within the budget. It times the host-speed reference
// before and after every child; a child's RefS is the mean of the two.
func repeat(ctx context.Context, mode, name string, seed int64, budget time.Duration, atLeast int) ([]row, error) {
	var rows []row
	start := time.Now()
	var last time.Duration
	ref := hostRef()
	for len(rows) < atLeast || time.Since(start)+last <= budget {
		t0 := time.Now()
		r, err := spawn(ctx, mode, name, seed)
		if err != nil {
			return nil, err
		}
		next := hostRef()
		r.RefS, ref = (ref+next)/2, next
		last = time.Since(t0)
		rows = append(rows, r)
	}
	return rows, nil
}

// gate applies the correctness and determinism checks to a set of rows:
// every op of a run whose oracle check failed, that errored, or whose
// simulated results, fingerprint or work counts differ from the first
// repetition's counts as failed.
func (wr *workloadReport) gate(rows []row, ref *row) {
	for i := range rows {
		r := &rows[i]
		wr.Attempted += r.Ops
		switch {
		case r.Err != "" || r.FailedOps > 0:
			failed := r.FailedOps
			if failed == 0 {
				failed = max(r.Ops, 1)
			}
			wr.fail(failed, "run %d: %s", i, r.Err)
		case r.Ops != ref.Ops || r.VirtMS != ref.VirtMS || r.VirtP99US != ref.VirtP99US || r.Fingerprint != ref.Fingerprint:
			wr.fail(r.Ops, "run %d: not deterministic: ops %d virt_ms %v fingerprint %s, first run %d %v %s",
				i, r.Ops, r.VirtMS, r.Fingerprint, ref.Ops, ref.VirtMS, ref.Fingerprint)
		default:
			for _, c := range countNames {
				if c != hostRacy && r.Counts[c] != ref.Counts[c] {
					wr.fail(r.Ops, "run %d: not deterministic: %s = %d, first run %d", i, c, r.Counts[c], ref.Counts[c])
					break
				}
			}
		}
	}
}

func column(rows []row, get func(r *row) float64) []float64 {
	vals := make([]float64, len(rows))
	for i := range rows {
		vals[i] = get(&rows[i])
	}
	return vals
}

// runWorkload measures one workload. End-to-end numbers always come from
// untraced children; a traced run adds profiled children and the probe
// child for the per-layer numbers.
func runWorkload(ctx context.Context, w *workload, seed int64, budget time.Duration, traced bool) (*workloadReport, error) {
	wr := &workloadReport{Name: w.name, Seed: seed,
		EndToEnd: make(map[string]summary), Host: make(map[string]summary), Exact: make(map[string]float64)}
	atLeast := minReps
	if traced {
		budget, atLeast = budget/3, minTracedReps
	}
	rows, err := repeat(ctx, modeRun, w.name, seed, budget, atLeast)
	if err != nil {
		return nil, err
	}
	ref := &rows[0]
	wr.Ops = ref.Ops
	wr.gate(rows, ref)
	for _, m := range endToEnd {
		wr.EndToEnd[m.name] = summarize(column(rows, m.get))
	}
	wr.Host["ref_s"] = summarize(column(rows, func(r *row) float64 { return r.RefS }))
	wr.Host["raw_wall_s"] = summarize(column(rows, func(r *row) float64 { return r.WallS }))
	for _, m := range exact {
		wr.Exact[m.name] = m.get(ref)
	}
	for _, c := range countNames {
		wr.Exact[c] = float64(ref.Counts[c])
	}
	if !traced {
		return wr, nil
	}

	cpuRows, err := repeat(ctx, modeCPU, w.name, seed, budget, atLeast)
	if err != nil {
		return nil, err
	}
	allocRow, err := spawn(ctx, modeAlloc, w.name, seed)
	if err != nil {
		return nil, err
	}
	wr.gate(append(cpuRows, allocRow), ref)
	hostBefore := hostRef()
	probeRow, err := spawn(ctx, modeProbes, w.name, seed)
	if err != nil {
		return nil, err
	}
	probeRow.RefS = (hostBefore + hostRef()) / 2
	wr.PerLayer = perLayer(wr, cpuRows, &allocRow, &probeRow)

	spans := map[string][]span{modeProbes: probeRow.Spans, modeAlloc: allocRow.Spans}
	for i := range rows {
		spans[fmt.Sprintf("%s%d", modeRun, i)] = rows[i].Spans
	}
	for i := range cpuRows {
		spans[fmt.Sprintf("%s%d", modeCPU, i)] = cpuRows[i].Spans
	}
	if err := writeJSON(filepath.Join(outDir, w.name+".spans.json"), spans); err != nil {
		return nil, err
	}
	return wr, nil
}

// perLayer folds the CPU-profiled children (mean seconds per run, at the
// reference host speed like the end-to-end times), the
// allocation-profiled child (its exact allocation count, split by its
// sampled layer shares), the probe child (its times at the reference host
// speed too) and the exact results into the per-layer metric set.
func perLayer(wr *workloadReport, cpu []row, alloc, probed *row) map[string]value {
	pl := make(map[string]value)
	for _, l := range hostLayers {
		sum := 0.0
		for i := range cpu {
			sum += cpu[i].atRefSpeed(cpu[i].HostS[l])
		}
		pl["host_s."+l] = value{sum / float64(len(cpu)), "s"}
	}
	sampled := 0.0
	for _, n := range alloc.LayerAllocs {
		sampled += n
	}
	for _, l := range allocLayers {
		perOp := 0.0
		if sampled > 0 {
			perOp = alloc.LayerAllocs[l] / sampled * float64(alloc.Allocs) / float64(alloc.Ops)
		}
		pl["allocs_per_op."+l] = value{perOp, "1/op"}
	}
	for _, c := range countNames {
		pl[c] = value{wr.Exact[c], "count"}
	}
	for _, m := range exact {
		pl[m.name] = value{wr.Exact[m.name], m.unit}
	}
	for _, p := range probes {
		v := probed.Probes[p.name]
		if p.unit != "x" && p.unit != "bytes" { // a time
			v = probed.atRefSpeed(v)
		}
		pl[p.name] = value{v, p.unit}
	}
	cpuWall := summarize(column(cpu, endToEnd[0].get)).Value
	pl["bench.trace_overhead_pct"] = value{100 * (cpuWall/wr.EndToEnd["wall_s"].Value - 1), "%"}
	return pl
}

// perLayerNames lists every per-layer metric in report order.
func perLayerNames() []string {
	var names []string
	for _, l := range hostLayers {
		names = append(names, "host_s."+l)
	}
	for _, l := range allocLayers {
		names = append(names, "allocs_per_op."+l)
	}
	names = append(names, countNames...)
	for _, m := range exact {
		names = append(names, m.name)
	}
	for _, p := range probes {
		names = append(names, p.name)
	}
	return append(names, "bench.trace_overhead_pct")
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// print writes the workload's table, then the one-line result the
// benchmark contract asks for: end-to-end metrics from an untraced run,
// per-layer metrics from a traced one.
func (wr *workloadReport) print(traced bool) error {
	wall := wr.EndToEnd["wall_s"]
	fmt.Printf("\n== %s: seed %d, %d fresh-process runs, %d ops/run, failed_ops %d ==\n",
		wr.Name, wr.Seed, wall.N, wr.Ops, wr.Failed)
	for _, e := range wr.Errors {
		fmt.Println("  FAILED:", e)
	}
	fmt.Printf("%-16s %-6s %12s %12s %12s %8s   (times: seconds at the reference host speed)\n",
		"metric", "unit", "median", "q1", "q3", "spread")
	printRow := func(name, unit string, s summary) {
		fmt.Printf("%-16s %-6s %12.6g %12.6g %12.6g %7.2f%%\n", name, unit, s.Median, s.Q1, s.Q3, 100*s.spread())
	}
	for _, m := range endToEnd {
		printRow(m.name, m.unit, wr.EndToEnd[m.name])
	}
	printRow("raw_wall_s", "s", wr.Host["raw_wall_s"])
	printRow("ref_s", "s", wr.Host["ref_s"])
	fmt.Printf("%-16s %-6s %12.6g\n", "throughput", "op/s", float64(wr.Ops)/wall.Value)
	for _, m := range exact {
		fmt.Printf("%-16s %-10s %v\n", m.name, m.unit, wr.Exact[m.name])
	}
	fmt.Print("work counts:")
	for _, c := range countNames {
		fmt.Printf(" %s=%.0f", c, wr.Exact[c])
	}
	fmt.Println()

	metrics := make(map[string]value)
	if traced {
		wr.printLayers()
		metrics = wr.PerLayer
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{wr.EndToEnd[m.name].Value, m.unit}
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": wr.Failed == 0, "attempted": max(wr.Attempted, 1), "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func (wr *workloadReport) printLayers() {
	total := 0.0
	for _, l := range hostLayers {
		total += wr.PerLayer["host_s."+l].Value
	}
	fmt.Printf("\n%-10s %10s %7s %14s   (profiled runs: sampled CPU and allocations, by nearest repository frame)\n",
		"layer", "host_s", "share", "allocs_per_op")
	for _, l := range append(hostLayers, "other", "total") {
		host, allocs := "", ""
		if l == "total" {
			host = fmt.Sprintf("%10.3f %6.1f%%", total, 100.0)
		} else if s, ok := wr.PerLayer["host_s."+l]; ok {
			host = fmt.Sprintf("%10.3f %6.1f%%", s.Value, 100*s.Value/total)
		}
		if a, ok := wr.PerLayer["allocs_per_op."+l]; ok {
			allocs = fmt.Sprintf("%14.5f", a.Value)
		}
		fmt.Printf("%-10s %18s %s\n", l, host, allocs)
	}
	fmt.Println("\nlayer probes (host cost per operation; the ladder adds one layer per rung):")
	for _, p := range probes {
		fmt.Printf("  %-40s %12.4g %s\n", p.name, wr.PerLayer[p.name].Value, p.unit)
	}
	fmt.Printf("  %-40s %12.4g %%\n", "bench.trace_overhead_pct", wr.PerLayer["bench.trace_overhead_pct"].Value)
}

func realMain() int {
	fs := flag.NewFlagSet("dsmperf", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload: jacobi, tsp, kvserve, faultstorm or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 28, "measuring time per workload; fresh-process runs repeat until it is spent")
	trace := fs.Int("trace", 0, "1 adds profiled runs and layer probes and reports the per-layer metrics")
	jsonOut := fs.String("json", "", "also write the full report (medians, quartiles, every value) to this file")
	compare := fs.Bool("compare", false, "compare two -json reports: -compare old.json new.json")
	child := fs.String("child", "", "internal: run as a measuring child (run, cpu, alloc or probes)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *child != "" {
		if *child == modeAlloc {
			runtime.MemProfileRate = allocProfileRate
		}
		return childMain(*child, *name, *seed)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dsmperf: -compare takes two report files: old.json new.json")
			return 2
		}
		return compareMain(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "dsmperf: bad arguments; see -h")
		return 2
	}
	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		todo = append(todo, w)
	} else {
		fmt.Fprintf(os.Stderr, "dsmperf: unknown workload %q\n", *name)
		return 2
	}

	rep := report{Host: bench.Host(), Seconds: *seconds}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s %s/%s\n",
		rep.Host.CPUs, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.OS, rep.Host.Arch)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, w := range todo {
		wr, err := runWorkload(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsmperf:", err)
			return 1
		}
		if err := wr.print(*trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "dsmperf:", err)
			return 1
		}
		if wr.Failed > 0 {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fmt.Fprintln(os.Stderr, "dsmperf:", err)
			return 1
		}
	}
	return code
}

func main() { os.Exit(realMain()) }
