package protocols_test

// Metamorphic relations: pairs of runs that must be indistinguishable, "≡"
// meaning the same final clock (System.Now), Stats, RecoveryStats, final
// shared memory and System.Fingerprint. A fault plan that does nothing must
// leave a run exactly as it was: no protocol wait may arm a deadline record,
// and a fault event still pending when the run ends must not move its clock.
// Recording a trace only watches the run, so it must not change it either.

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/protocols"
)

// relation is one row of the table: a plan the run takes through
// System.InjectFaults, or a change to its Config, that must leave it ≡ the
// run without; or a relation another test pins, named with that test and its
// file. A facade relation runs only on the programs that go through the
// facade's threads, since only they record spans.
type relation struct {
	name     string
	plan     func() *dsmpm2.FaultPlan
	config   func(*dsmpm2.Config)
	facade   bool
	pinnedBy string
	file     string
}

// hour is far past the end of every program below.
const hour = dsmpm2.Time(3600 * dsmpm2.Second)

var relations = []relation{
	{name: "empty plan ≡ no plan", plan: func() *dsmpm2.FaultPlan { return dsmpm2.NewFaultPlan(1) }},
	{name: "plan after the run ≡ no plan", plan: func() *dsmpm2.FaultPlan {
		return dsmpm2.NewFaultPlan(1).
			Crash(hour, 3).Restart(hour+dsmpm2.Time(dsmpm2.Millisecond), 3).
			Partition(hour, 1, 2).Heal(hour+dsmpm2.Time(dsmpm2.Millisecond), 1, 2).
			Loss(hour, 0, 1, 0.5, 0.5)
	}},
	{name: "Trace on ≡ Trace off", config: func(cfg *dsmpm2.Config) { cfg.Trace = true }, facade: true},
	{name: "empty plan, plan after the run, Trace on ≡ the plain run (golden jacobi)", pinnedBy: "TestGoldenConfigRelations", file: "../apps/jacobi/jacobi_test.go"},
	{name: "page stretches ≡ word accesses (jacobi)", pinnedBy: "TestStretchesMatchWordPath", file: "../apps/jacobi/jacobi_test.go"},
	{name: "a stopped engine resumed ≡ the unbroken run", pinnedBy: "TestStopResumeMatchesUnbroken", file: "../sim/engine_test.go"},
	{name: "a checkpoint token resumed ≡ jacobi.Run", pinnedBy: "TestDemoPlanTokensResumeToRun", file: "../../faults_test.go"},
}

// outcome is what ≡ compares.
type outcome struct {
	now   dsmpm2.Time
	stats dsmpm2.Stats
	rec   dsmpm2.RecoveryStats
	mem   []uint64
	fp    string
}

// program is a workload a relation runs: the conformance scenarios, which
// drive core and pm2 below the facade, and a lock probe, which goes through
// the facade, where each of four nodes takes one lock five times to bump a
// shared word.
type program struct {
	name   string
	facade bool
	run    func(t *testing.T, sys *dsmpm2.System) []uint64
}

func programs() []program {
	var out []program
	for _, p := range protocols.ConformancePrograms() {
		out = append(out, program{p.Name, false, func(t *testing.T, sys *dsmpm2.System) []uint64 {
			return p.Run(t, sys.Runtime(), sys.Run, sys.DSM())
		}})
	}
	return append(out, program{"lock probe", true, lockProbe})
}

func lockProbe(t *testing.T, sys *dsmpm2.System) []uint64 {
	word := sys.MustMalloc(0, 8, nil)
	lock := sys.NewLock(0)
	for n := 0; n < sys.Nodes(); n++ {
		sys.Spawn(n, fmt.Sprintf("locker%d", n), func(th *dsmpm2.Thread) {
			for i := 0; i < 5; i++ {
				th.Acquire(lock)
				th.WriteUint64(word, th.ReadUint64(word)+1)
				th.Release(lock)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	sys.Spawn(1, "reader", func(th *dsmpm2.Thread) {
		th.Acquire(lock)
		got = th.ReadUint64(word)
		th.Release(lock)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return []uint64{got}
}

// play runs prog under proto on four nodes, changed by r's plan and config
// (the zero relation is the plain run), and fails on any deadline record the
// run's waits armed, and on a traced run that recorded no span.
func play(t *testing.T, proto string, prog program, r relation) outcome {
	t.Helper()
	cfg := dsmpm2.Config{Nodes: 4, Network: dsmpm2.BIPMyrinet, Protocol: proto, Seed: 42}
	if r.config != nil {
		r.config(&cfg)
	}
	sys := dsmpm2.MustNew(cfg)
	var plan *dsmpm2.FaultPlan
	if r.plan != nil {
		plan = r.plan()
	}
	if err := sys.InjectFaults(plan, dsmpm2.FaultOptions{}); err != nil {
		t.Fatal(err)
	}
	mem := prog.run(t, sys)
	if qs := sys.Runtime().Engine().QueueStats(); qs.DeadlineLive != 0 || qs.DeadlineInert != 0 {
		t.Errorf("%q: %d live and %d inert deadline records; a protocol wait polled", r.name, qs.DeadlineLive, qs.DeadlineInert)
	}
	if cfg.Trace && sys.Trace().Len() == 0 {
		t.Errorf("%q: the traced %s recorded no span", r.name, prog.name)
	}
	return outcome{sys.Now(), sys.Stats(), sys.RecoveryStats(), mem, sys.Fingerprint()}
}

// TestMetamorphicRelations checks each plan and config relation on every
// registered protocol and program (a facade relation on the facade's
// programs), and that each pinned relation's test exists.
func TestMetamorphicRelations(t *testing.T) {
	for _, r := range relations {
		if r.pinnedBy == "" {
			continue
		}
		src, err := os.ReadFile(r.file)
		if err != nil || !strings.Contains(string(src), "func "+r.pinnedBy+"(t *testing.T)") {
			t.Errorf("%s: pinned by %s, which %s does not define (%v)", r.name, r.pinnedBy, r.file, err)
		}
	}
	for _, proto := range dsmpm2.MustNew(dsmpm2.Config{}).ProtocolNames() {
		for _, prog := range programs() {
			t.Run(proto+"/"+prog.name, func(t *testing.T) {
				want := play(t, proto, prog, relation{})
				for _, r := range relations {
					if r.pinnedBy != "" || r.facade && !prog.facade {
						continue
					}
					if got := play(t, proto, prog, r); fmt.Sprint(got) != fmt.Sprint(want) {
						t.Errorf("%s broken:\nchanged   %+v\nunchanged %+v", r.name, got, want)
					}
				}
			})
		}
	}
}
