package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"dsmpm2"
	"dsmpm2/internal/bench"
)

// procStart is taken at package initialisation, before main and flag
// parsing, so setup_s covers everything a one-shot run pays before its
// simulation starts.
var procStart = time.Now()

// A row is what one child process measured: one timed simulation in a fresh
// process, exactly as a user's one-shot run. The child prints it as JSON on
// its last line of standard output; the parent adds PeakRSSMB from the
// child's rusage.
type row struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Ops       int64  `json:"ops"`
	FailedOps int64  `json:"failed_ops"`
	Err       string `json:"err,omitempty"`

	// Host seconds as measured; RefS is what the parent's host-speed
	// reference took next to this child (the mean of before and after).
	RefS       float64 `json:"ref_s"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	SetupS     float64 `json:"setup_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	RetainedMB float64 `json:"retained_mb"`
	Allocs     uint64  `json:"allocs"`
	AllocMB    float64 `json:"alloc_mb"`

	// Simulated results and work counts: exact, identical across
	// repetitions of one seed.
	VirtMS      float64          `json:"virt_ms"`
	VirtP99US   float64          `json:"virt_p99_us"`
	PaperErrPct float64          `json:"paper_err_pct"`
	Fingerprint string           `json:"fingerprint"`
	Counts      map[string]int64 `json:"counts"`

	// The CPU-profiled children only: sampled CPU seconds per layer.
	HostS map[string]float64 `json:"host_s,omitempty"`
	// The allocation-profiled child only: estimated objects per layer.
	LayerAllocs map[string]float64 `json:"layer_allocs,omitempty"`

	// The probe child only.
	Probes map[string]float64 `json:"probes,omitempty"`

	Spans []span `json:"spans,omitempty"`
}

// atRefSpeed converts seconds this row measured to seconds at the reference
// host speed.
func (r *row) atRefSpeed(s float64) float64 { return s * refNominalS / r.RefS }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Child modes. End-to-end numbers come from modeRun children only. The two
// profiles are taken in separate children because dense allocation sampling
// costs microseconds per sampled object, all of which a CPU profile taken
// beside it would charge to the layers that allocate.
const (
	modeRun    = "run"    // untraced
	modeCPU    = "cpu"    // 100 Hz CPU profile
	modeAlloc  = "alloc"  // allocation profile at allocProfileRate
	modeProbes = "probes" // the layer probes, no workload
)

// measure runs one workload once in this process. For modeAlloc the caller
// has already set runtime.MemProfileRate at process start.
func measure(w *workload, seed int64, scale float64, mode string) row {
	r := row{Workload: w.name, Seed: seed}
	var spans spanLog
	goroutines := runtime.NumGoroutine()

	setup := spans.begin("setup", 0)
	run, err := w.prepare(seed, scale)
	if err != nil {
		r.Err = err.Error()
		return r
	}
	runtime.GC() // every run starts from a collected heap, whatever its set-up left
	spans.end(setup)
	r.SetupS = time.Since(procStart).Seconds()

	var allocsBefore map[string]float64
	var profile bytes.Buffer
	switch mode {
	case modeAlloc:
		allocsBefore = allocObjects()
	case modeCPU:
		if err := pprof.StartCPUProfile(&profile); err != nil {
			r.Err = err.Error()
			return r
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	timed := spans.begin("run", 0)
	t0 := time.Now()
	out, err := run()
	r.WallS = time.Since(t0).Seconds()
	spans.end(timed)
	r.CPUS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	if mode == modeCPU {
		pprof.StopCPUProfile()
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.Ops = out.ops
	r.Allocs = m1.Mallocs - m0.Mallocs
	r.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	switch mode {
	case modeAlloc:
		r.LayerAllocs = allocObjects()
		for l, n := range allocsBefore {
			r.LayerAllocs[l] -= n
		}
	case modeCPU:
		if r.HostS, err = hostSeconds(profile.Bytes()); err != nil {
			r.Err = err.Error()
			return r
		}
	}

	r.Counts = workCounts(out.systems)
	r.Counts[hostRacy] = int64(runtime.NumGoroutine() - goroutines)
	for _, sys := range out.systems {
		r.VirtMS += float64(sys.Now()) / 1e6
		r.Fingerprint += sys.Fingerprint()[:16]
	}
	r.VirtP99US = out.virtP99US
	if r.VirtP99US == 0 {
		r.VirtP99US = faultP99US(out.systems)
	}

	verify := spans.begin("verify", 0)
	failed, err := out.verify()
	spans.end(verify)
	r.FailedOps = failed
	if err != nil {
		r.Err = err.Error()
	}

	// What a process that runs many simulations keeps per finished one.
	out, run = nil, nil
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	r.RetainedMB = float64(m2.HeapAlloc) / 1e6

	r.PaperErrPct = paperErrPct()
	if r.PaperErrPct != 0 {
		r.FailedOps = r.Ops
		r.Err = fmt.Sprintf("paper tables off by %.3g%%", r.PaperErrPct)
	}
	r.Spans = spans.spans
	return r
}

// workCounts reads the exact work counters of finished systems through the
// accessors the layers already have, summed over the workload's systems.
func workCounts(systems []*dsmpm2.System) map[string]int64 {
	c := make(map[string]int64)
	for _, sys := range systems {
		rt := sys.Runtime()
		c["sim.events"] += int64(rt.Engine().Events())
		c["sim.threads"] += int64(rt.ThreadCount())
		for n := 0; n < rt.Nodes(); n++ {
			c["pm2.migrations"] += int64(rt.Node(n).MigrationsOut)
		}
		msgs, bytes := rt.Network().Stats()
		c["madeleine.messages"] += int64(msgs)
		c["madeleine.bytes"] += bytes
		c["madeleine.envelopes"] += int64(rt.Network().Envelopes())
		st := sys.Stats()
		c["core.read_faults"] += st.ReadFaults
		c["core.write_faults"] += st.WriteFaults
		c["core.page_sends"] += st.PageSends
		c["core.diffs_sent"] += st.DiffsSent
		c["core.invalidations"] += st.Invalidations
		c["core.acquires"] += st.Acquires
		c["core.barriers"] += st.Barriers
		c["core.remote_fetches"] += st.RemoteFetches
	}
	return c
}

// hostRacy names the one work count that does not repeat exactly: besides the
// runtime's own helpers, which come and go, a finished System sometimes
// leaves one more proc goroutine blocked in Engine.drive. It is reported,
// never gated or compared.
const hostRacy = "pm2.leaked_goroutines"

// countNames lists the work counts in report order.
var countNames = []string{
	"sim.events", "sim.threads", "pm2.migrations", "pm2.leaked_goroutines",
	"madeleine.messages", "madeleine.bytes", "madeleine.envelopes",
	"core.read_faults", "core.write_faults", "core.page_sends", "core.diffs_sent",
	"core.invalidations", "core.acquires", "core.barriers", "core.remote_fetches",
}

// paperErrPct is the largest relative error, in percent, over the cells of
// the paper's Section 2.1 and Tables 3 and 4 that the simulator reproduces.
func paperErrPct() float64 {
	worst := 0.0
	cell := func(paper int, got float64) {
		if e := 100 * math.Abs(math.Round(got)-float64(paper)) / float64(paper); e > worst {
			worst = e
		}
	}
	for _, p := range paperCells {
		prof := dsmpm2.ResolveProfile(p.network)
		if p.rpc > 0 {
			cell(p.rpc, bench.NullRPC(prof))
		}
		cell(p.migration, bench.Migration(prof))
		page := bench.ReadFaultPage(prof)
		for i, got := range []dsmpm2.Duration{page.Detect, page.Request, page.Transfer, page.ProtocolOverhead(), page.Total} {
			cell(p.table3[i], got.Microseconds())
		}
		mig := bench.ReadFaultMigrate(prof)
		for i, got := range []dsmpm2.Duration{mig.Detect, mig.Migration, mig.Overhead, mig.Total} {
			cell(p.table4[i], got.Microseconds())
		}
	}
	return worst
}

// paperCells are the 42 published numbers (microseconds): null RPC (two
// networks only) and thread migration from Section 2.1, then the read-fault
// breakdowns of Table 3 (page fault, request, transfer, protocol overhead,
// total) and Table 4 (page fault, thread migration, overhead, total).
var paperCells = []struct {
	network   string
	rpc       int
	migration int
	table3    [5]int
	table4    [4]int
}{
	{"BIP/Myrinet", 8, 75, [5]int{11, 23, 138, 26, 198}, [4]int{11, 75, 1, 87}},
	{"TCP/Myrinet", 0, 280, [5]int{11, 220, 343, 26, 600}, [4]int{11, 280, 1, 292}},
	{"TCP/Fast Ethernet", 0, 373, [5]int{11, 220, 736, 26, 993}, [4]int{11, 373, 1, 385}},
	{"SISCI/SCI", 6, 62, [5]int{11, 38, 119, 26, 194}, [4]int{11, 62, 1, 74}},
}

// childMain is the entry of a re-executed child: measure (or probe) and
// print the row.
func childMain(mode, name string, seed int64) int {
	var r row
	if mode == modeProbes {
		r = runProbes()
	} else {
		w := findWorkload(name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "dsmperf: unknown workload %q\n", name)
			return 2
		}
		r = measure(w, seed, 1, mode)
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "dsmperf:", err)
		return 1
	}
	return 0
}
