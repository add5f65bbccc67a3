package jacobi

import (
	"fmt"
	"math"
	"testing"

	"dsmpm2"
)

func TestSerialConverges(t *testing.T) {
	few := SolveSerial(8, 2)
	many := SolveSerial(8, 50)
	if few <= 0 || many <= 0 {
		t.Fatalf("checksums not positive: %v %v", few, many)
	}
	if many <= few {
		t.Fatalf("heat did not diffuse: %v then %v", few, many)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	const n, iters = 8, 4
	want := SolveSerial(n, iters)
	hier := dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet)
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"li_hudak", Config{Nodes: 2, Protocol: "li_hudak"}},
		{"hbrc_mw", Config{Nodes: 2, Protocol: "hbrc_mw"}},
		{"erc_sw", Config{Nodes: 2, Protocol: "erc_sw"}},
		{"hbrc_mw/hier", Config{Nodes: 4, Protocol: "hbrc_mw", Network: hier}},
	} {
		row.cfg.N, row.cfg.Iterations, row.cfg.Seed = n, iters, 1
		res, err := Run(row.cfg)
		if err != nil {
			t.Fatalf("[%s] %v", row.name, err)
		}
		if math.Abs(res.Checksum-want) > 1e-9 {
			t.Errorf("[%s] checksum = %v, want %v", row.name, res.Checksum, want)
		}
	}
}

func TestParallelMatchesSerialFourNodes(t *testing.T) {
	const n, iters = 12, 3
	want := SolveSerial(n, iters)
	res, err := Run(Config{N: n, Iterations: iters, Nodes: 4, Protocol: "hbrc_mw", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Checksum-want) > 1e-9 {
		t.Fatalf("checksum = %v, want %v", res.Checksum, want)
	}
}

func TestHbrcPropagatesAtBarriers(t *testing.T) {
	// Every grid row is homed on the node that writes it, so hbrc_mw's
	// releases (at the barriers) propagate home-side writes to the
	// boundary readers, which then refetch. Heat starts at the top edge
	// and needs about five sweeps to reach the block boundary of an
	// 8-row grid, so run enough iterations for the boundary rows to
	// actually change. The propagation vehicle is write notices
	// piggybacked on the barrier (zero invalidation envelopes).
	res, err := Run(Config{N: 8, Iterations: 10, Nodes: 2, Protocol: "hbrc_mw", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Notices == 0 {
		t.Fatal("hbrc_mw jacobi never piggybacked a write notice on a barrier")
	}
	if res.Stats.Invalidations != 0 {
		t.Fatalf("hbrc_mw jacobi sent %d eager invalidations; barriers should carry the notices",
			res.Stats.Invalidations)
	}
	if res.Stats.PageSends == 0 {
		t.Fatal("boundary rows never travelled")
	}
}

func TestJacobiBadConfig(t *testing.T) {
	if _, err := Run(Config{N: 1, Iterations: 1, Nodes: 1}); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := Run(Config{N: 8, Iterations: 0, Nodes: 1}); err == nil {
		t.Error("0 iterations accepted")
	}
}

// TestTracedTokenResumes: spans are not part of a run's fingerprint, so a
// token a traced session takes resumes, untraced, to the traced run's end.
func TestTracedTokenResumes(t *testing.T) {
	cfg := Config{N: 8, Iterations: 2, Nodes: 2, Protocol: "hbrc_mw", Seed: 1, Trace: true}
	ref, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.RunToEnd(); err != nil {
		t.Fatal(err)
	}
	if ref.System().Trace().Len() == 0 {
		t.Fatal("the traced session recorded no spans")
	}
	want := ref.System().Fingerprint()
	for k := 0; k <= ref.Steps(); k++ {
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s.StepsDone() < k {
			if err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := ResumeSession(ck)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		if resumed.System().Trace() != nil {
			t.Fatalf("k=%d: the resumed session traces", k)
		}
		if err := resumed.RunToEnd(); err != nil {
			t.Fatal(err)
		}
		if got := resumed.System().Fingerprint(); got != want {
			t.Fatalf("k=%d: resumed fingerprint %s, traced run %s", k, got, want)
		}
	}
}

// TestStretchesMatchWordPath holds the page-stretch sweep to the word path it
// replaces. Tracing makes every ReadHit/WriteHit refuse, so a traced run
// computes each cell through the word accessors; the untraced run sweeps in
// stretches. Under every registered protocol and placement, and in a fault
// plan's session, both must reach the same fingerprint (final clock, every
// fault timing, the stats) and the same checksum.
func TestStretchesMatchWordPath(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, proto := range dsmpm2.MustNew(dsmpm2.Config{}).ProtocolNames() {
		base := Config{N: 96, Iterations: 4, Nodes: 8, Protocol: proto, Seed: 3}
		misplaced, adaptive := base, base
		misplaced.MisplaceHomes = true
		adaptive.MisplaceHomes, adaptive.AdaptiveHomes = true, true
		variants = append(variants, variant{proto + "/placed", base},
			variant{proto + "/misplaced", misplaced}, variant{proto + "/adaptive", adaptive})
	}
	// The faults demo's plan: 8 nodes in two clusters, two of them crashing
	// and restarting while the sweep runs.
	ms := func(n int) dsmpm2.Time { return dsmpm2.Time(n) * dsmpm2.Time(dsmpm2.Millisecond) }
	plan := dsmpm2.NewFaultPlan(11)
	plan.Crash(ms(2), 3).Restart(ms(9), 3)
	plan.Crash(ms(4), 6).Restart(ms(12), 6)
	variants = append(variants, variant{"hbrc_mw/faultplan", Config{
		N: 96, Iterations: 4, Nodes: 8, Protocol: "hbrc_mw", Seed: 7, FaultPlan: plan,
		Network: dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(8, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet),
	}})
	want := SolveSerial(96, 4)
	crashes := 0
	for _, v := range variants {
		hits, err := Run(v.cfg)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		v.cfg.Trace = true
		words, err := Run(v.cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", v.name, err)
		}
		if words.System.Trace().Len() == 0 {
			t.Fatalf("%s: the traced run recorded no spans", v.name)
		}
		if hits.Checksum != words.Checksum || math.Abs(hits.Checksum-want) > 1e-9 {
			t.Errorf("%s: checksum %v in stretches, %v word by word, serial %v", v.name, hits.Checksum, words.Checksum, want)
		}
		if hits.Elapsed != words.Elapsed || hits.Stats != words.Stats || hits.Recovery != words.Recovery {
			t.Errorf("%s: stretches end at %v with %+v %+v, word by word at %v with %+v %+v", v.name,
				hits.Elapsed, hits.Stats, hits.Recovery, words.Elapsed, words.Stats, words.Recovery)
		}
		if a, b := hits.System.Fingerprint(), words.System.Fingerprint(); a != b {
			t.Errorf("%s: fingerprint %s in stretches, %s word by word", v.name, a, b)
		}
		crashes += hits.Faults.Crashes
	}
	if crashes != 2 {
		t.Fatalf("the fault plan crashed %d nodes during the sweep, want 2", crashes)
	}
}

// TestGoldenConfigRelations runs the golden jacobi config (golden_test.go's
// TestGoldenJacobiTrace pins its clock and fingerprint) under the metamorphic
// relations of internal/protocols/metamorphic_test.go: an empty plan and a
// plan whose events all fall after the run, each through
// System.InjectFaults, and Trace on. Each must end at the golden clock with
// the golden fingerprint, the plain run's counters and the serial checksum;
// the traced run must record spans.
func TestGoldenConfigRelations(t *testing.T) {
	const (
		elapsed     = dsmpm2.Time(1247233)
		fingerprint = "17ff59c2123a7ca166e8666ef280cb9a58fd76c7be87a58975aef784672aac64"
	)
	hour := dsmpm2.Time(3600 * dsmpm2.Second)
	ms := dsmpm2.Time(dsmpm2.Millisecond)
	golden := Config{N: 24, Iterations: 4, Nodes: 8, Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: 7}
	traced := golden
	traced.Trace = true
	rows := []struct {
		name string
		cfg  Config
		plan *dsmpm2.FaultPlan
	}{
		{"no plan", golden, nil},
		{"empty plan", golden, dsmpm2.NewFaultPlan(1)},
		{"plan after the run", golden, dsmpm2.NewFaultPlan(1).
			Crash(hour, 3).Restart(hour+ms, 3).
			Partition(hour, 1, 2).Heal(hour+ms, 1, 2).
			Loss(hour, 0, 1, 0.5, 0.5)},
		{"Trace on", traced, nil},
	}
	var plain string
	for _, r := range rows {
		res, err := run(r.cfg, r.plan)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		sys := res.System
		if res.Checksum != SolveSerial(24, 4) {
			t.Errorf("%s: checksum %v, want %v", r.name, res.Checksum, SolveSerial(24, 4))
		}
		if res.Elapsed != elapsed || sys.Fingerprint() != fingerprint {
			t.Errorf("%s: ends at %d with fingerprint %s, want %d and %s", r.name, res.Elapsed, sys.Fingerprint(), elapsed, fingerprint)
		}
		counters := fmt.Sprint(res.Stats, sys.FaultStats(), sys.RecoveryStats())
		if plain == "" {
			plain = counters
		} else if counters != plain {
			t.Errorf("%s: counters %s, want the plain run's %s", r.name, counters, plain)
		}
		if r.cfg.Trace && sys.Trace().Len() == 0 {
			t.Errorf("%s: the traced run recorded no span", r.name)
		}
	}
}
