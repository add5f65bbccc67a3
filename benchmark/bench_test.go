package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"regexp"
	"runtime/pprof"
	"testing"
)

const smokeScale = 0.02

// Every workload, shrunk, passes its oracle, repeats exactly, and fills
// every work count.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		first := measure(w, 1, smokeScale, modeRun)
		again := measure(w, 1, smokeScale, modeRun)
		if first.Err != "" || first.FailedOps != 0 || first.Ops == 0 {
			t.Fatalf("%s: ops %d, failed %d, err %q", w.name, first.Ops, first.FailedOps, first.Err)
		}
		if first.VirtMS <= 0 || first.VirtP99US <= 0 || first.PaperErrPct != 0 {
			t.Errorf("%s: virt_ms %v, virt_p99_us %v, paper_err_pct %v", w.name, first.VirtMS, first.VirtP99US, first.PaperErrPct)
		}
		if again.VirtMS != first.VirtMS || again.Fingerprint != first.Fingerprint || again.Ops != first.Ops {
			t.Errorf("%s: second run differs: %v/%s/%d, first %v/%s/%d", w.name,
				again.VirtMS, again.Fingerprint, again.Ops, first.VirtMS, first.Fingerprint, first.Ops)
		}
		for _, c := range countNames {
			if _, ok := first.Counts[c]; !ok {
				t.Errorf("%s: work count %s missing", w.name, c)
			}
		}
		if other := measure(w, 2, smokeScale, modeRun); other.Err != "" || other.FailedOps != 0 {
			t.Errorf("%s seed 2: failed %d, err %q", w.name, other.FailedOps, other.Err)
		}
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the program emits.
func TestSpecMatchesProgram(t *testing.T) {
	var sp spec
	if err := readJSON("../"+specPath, &sp); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the spec, %d in the program", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: spec %q, program %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why is empty or exceeds 200 characters", w.Name)
		}
	}

	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in the spec, %d in the program", len(sp.EndToEnd), len(endToEnd))
	}
	haveSetup := false
	for i, m := range sp.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: spec %+v, program %s [%s]", i, m, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %+v: bad bound, name or unit", m)
		}
		haveSetup = haveSetup || m.Name == "setup_s" && m.Unit == "s"
	}
	if !haveSetup {
		t.Error("setup_s missing from the end-to-end metrics")
	}

	// A traced report at smoke scale emits every per-layer metric.
	wr := &workloadReport{EndToEnd: map[string]summary{"wall_s": {Value: 1}}, Exact: map[string]float64{}}
	emitted := perLayer(wr, []row{{Ops: 1, WallS: 1, RefS: refNominalS}}, &row{Ops: 1}, &row{RefS: refNominalS})
	names := perLayerNames()
	if len(sp.PerLayer) != len(names) || len(emitted) != len(names) || len(names) > 128 {
		t.Fatalf("%d per-layer metrics in the spec, %d named, %d emitted", len(sp.PerLayer), len(names), len(emitted))
	}
	for i, m := range sp.PerLayer {
		v, ok := emitted[m.Name]
		if m.Name != names[i] || !ok || v.Unit != m.Unit {
			t.Errorf("per-layer metric %d: spec %s [%s], program %s [%s]", i, m.Name, m.Unit, names[i], v.Unit)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v: bad name, unit or direction", m)
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"memory", []string{"runtime.mapaccess1_fast64", "dsmpm2/internal/memory.(*Space).check", "dsmpm2/internal/core.(*DSM).Access", "dsmpm2.(*Thread).ReadUint64"}},
		{"sim", []string{"runtime.chansend", "dsmpm2/internal/sim.(*Proc).Park", "dsmpm2/internal/pm2.(*Thread).Call"}},
		{"core", []string{"runtime.mallocgc", "runtime.newobject", "dsmpm2/internal/core.(*DSM).sendPage", "dsmpm2/internal/protocols.(*liHudak).ReadServer"}},
		{"freelist", []string{"runtime.growslice", "dsmpm2/internal/freelist.(*List[go.shape.*uint8]).Put", "dsmpm2/internal/memory.(*Space).Drop"}},
		{"apps", []string{"dsmpm2/internal/apps/tsp.lowerBound", "dsmpm2/internal/apps/tsp.Run.func2.3"}},
		{"dsmpm2", []string{"dsmpm2.(*Thread).span", "dsmpm2/internal/apps/jacobi.Run.func1"}},
		{"bench", []string{"math/rand.(*Rand).Intn", "main.prepareFaultstorm.func1", "dsmpm2.(*System).Spawn.func1"}},
		{"bench", []string{"dsmpm2/benchmark.measure", "testing.tRunner"}},
		{"bench", []string{"dsmpm2/internal/bench.NullRPC", "main.paperErrPct"}},
		{"go.gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"go.gc", []string{"runtime.(*sweepLocked).sweep", "runtime.sweepone", "runtime.bgsweep", "runtime.gcenable.gowrap1"}},
		{"go.sched", []string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}},
		{"go.other", []string{"runtime.usleep", "runtime.sysmon", "runtime.mstart1"}},
		{"go.other", nil},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
	if got := allocLayerOf([]string{"runtime.mallocgc", "dsmpm2/internal/isomalloc.(*Allocator).Alloc"}); got != "other" {
		t.Errorf("isomalloc allocation charged to %s, want other", got)
	}
}

// Every sample of a real profile lands in exactly one known layer.
func TestHostSecondsCoversProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	r := measure(findWorkload("faultstorm"), 1, 0.1, modeRun)
	pprof.StopCPUProfile()
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	got, err := hostSeconds(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, l := range hostLayers {
		known[l] = true
	}
	sum := 0.0
	for l, s := range got {
		if !known[l] {
			t.Errorf("samples charged to unknown layer %q", l)
		}
		sum += s
	}
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range p.samples {
		total += float64(s.nanos) / 1e9
	}
	if len(p.samples) == 0 || math.Abs(sum-total) > 0.01*total {
		t.Errorf("layers hold %.3f s of %.3f s sampled over %d samples: shares do not sum to 1", sum, total, len(p.samples))
	}
	// A hostile profile is an error, never a panic.
	for cut := 0; cut < len(raw); cut += len(raw)/97 + 1 {
		_, _ = decodeProfile(raw[:cut]) // an error or a partial profile, both fine
	}
	if _, err := hostSeconds([]byte("not a profile")); err == nil {
		t.Error("hostSeconds accepted garbage")
	}
}

func TestSummarize(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 || s.Value != 5.5 {
		t.Errorf("quartiles %v %v %v n %d", s.Q1, s.Median, s.Q3, s.N)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 || s.Value != 2 {
		t.Errorf("quartiles of three: %v %v %v", s.Q1, s.Median, s.Q3)
	}
	if s := summarize([]float64{4}); s.Median != 4 || s.Value != 4 || s.spread() != 0 {
		t.Errorf("single value: %+v", s)
	}
}

func TestVerdicts(t *testing.T) {
	tight := summary{Value: 100, Median: 100, Q1: 99, Q3: 101}
	noisy := summary{Value: 100, Median: 100, Q1: 90, Q3: 110}
	for _, tc := range []struct {
		old   summary
		new   float64
		bound float64
		want  string
	}{
		{tight, 100.5, 0.08, "same"},
		{tight, 107, 0.08, "same"},
		{tight, 109, 0.08, "worse"},
		{tight, 95, 0.08, "same"},
		{tight, 90, 0.08, "better"},
		{noisy, 130, 0.08, "unresolved"},
		{noisy, 70, 0.08, "unresolved"},
		{noisy, 130, 0.25, "worse"},
		{summary{}, 1, 0.08, "unresolved"},
	} {
		if got := verdict(tc.old, summary{Value: tc.new}, tc.bound); got != tc.want {
			t.Errorf("verdict(%v -> %v, bound %v) = %s, want %s", tc.old.Median, tc.new, tc.bound, got, tc.want)
		}
	}
	if exactVerdict(5, 5) != "same" || exactVerdict(5, 6) != "worse" || exactVerdict(5, 4) != "better" {
		t.Error("exact verdicts")
	}
}
