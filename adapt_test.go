package dsmpm2_test

// Home-migration tests: the profiler-driven adaptive placement must keep
// sequential correctness (the conformance suite covers every protocol; the
// golden trace here pins the virtual-time behaviour of the pinned workload),
// replay bit-identically, and survive the old home crashing at any point
// around the migration handshake, resolving exactly once.

import (
	"fmt"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
)

// goldenAdaptJacobiConfig is the pinned migration workload: 16 nodes, every
// grid row deliberately misplaced on node 0, entry consistency (whose
// acquire-time refetches make placement dominate the fetch count), profiler
// and decision engine on.
func goldenAdaptJacobiConfig() jacobi.Config {
	return jacobi.Config{
		N: 24, Iterations: 8, Nodes: 16,
		Network: dsmpm2.BIPMyrinet, Protocol: "entry_mw", Seed: 7,
		MisplaceHomes: true, AdaptiveHomes: true,
	}
}

const (
	// goldenAdaptJacobiFingerprint pins the migration-enabled run's
	// TimingLog + stats digest, like golden_test.go pins the fault-free
	// hbrc_mw run: any change to the profiler's epoch fold, the decision
	// engine, or the svcMigrateHome handshake that moves a single virtual
	// timestamp (or a single counter) shows up here immediately. Captured
	// at the introduction of the profiler (PR 5).
	goldenAdaptJacobiFingerprint = "a8a975ed1789c8dba1a8ecf2b0e1d380564ce297e7904ef10f0caef29770a6dc"
	// goldenAdaptJacobiElapsed is the run's total virtual time.
	goldenAdaptJacobiElapsed = dsmpm2.Time(7006758)
	// goldenAdaptJacobiMigrations is the number of home migrations the
	// decision engine performs on this workload: the misplaced row pages of
	// both grids (those whose writer is not node 0) move onto their writers
	// once the stability window closes.
	goldenAdaptJacobiMigrations = int64(44)
)

// TestGoldenAdaptiveJacobiTrace replays the pinned migration workload and
// requires the exact fault timings, final clock and migration count.
func TestGoldenAdaptiveJacobiTrace(t *testing.T) {
	res, err := jacobi.Run(goldenAdaptJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := jacobi.SolveSerial(24, 8); res.Checksum != want {
		t.Fatalf("checksum %v, want %v", res.Checksum, want)
	}
	if res.Stats.HomeMigrations != goldenAdaptJacobiMigrations {
		t.Errorf("home migrations = %d, want %d (decision engine changed)",
			res.Stats.HomeMigrations, goldenAdaptJacobiMigrations)
	}
	if res.Elapsed != goldenAdaptJacobiElapsed {
		t.Errorf("virtual elapsed = %d, want %d (migration timing changed)",
			res.Elapsed, goldenAdaptJacobiElapsed)
	}
	if fp := res.System.Fingerprint(); fp != goldenAdaptJacobiFingerprint {
		t.Errorf("trace fingerprint = %s,\nwant %s\n(migration-enabled replay diverged from the golden trace)",
			fp, goldenAdaptJacobiFingerprint)
	}
}

// TestAdaptiveJacobiReplayIdentical: the migration-enabled run is
// bit-identical across replays of the same seed — the acceptance property.
func TestAdaptiveJacobiReplayIdentical(t *testing.T) {
	a, err := jacobi.Run(goldenAdaptJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := jacobi.Run(goldenAdaptJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := a.System.Fingerprint(), b.System.Fingerprint(); fa != fb {
		t.Fatalf("same-seed migration replays diverged:\n%s\n%s", fa, fb)
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("elapsed %d vs %d on replay", a.Elapsed, b.Elapsed)
	}
}

// TestAdaptiveJacobiReducesFetches: the headline effect at test scale — the
// decision engine must cut the misplaced workload's remote fetches by at
// least 1.5x (the acceptance threshold the 64-node bench smoke also pins).
func TestAdaptiveJacobiReducesFetches(t *testing.T) {
	cfg := goldenAdaptJacobiConfig()
	cfg.AdaptiveHomes = false
	static, err := jacobi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := jacobi.Run(goldenAdaptJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, a := static.Stats.RemoteFetches, adaptive.Stats.RemoteFetches
	if a <= 0 || float64(s)/float64(a) < 1.5 {
		t.Fatalf("remote-fetch reduction %.2fx < 1.5x (static %d, adaptive %d, migrations %d)",
			float64(s)/float64(a), s, a, adaptive.Stats.HomeMigrations)
	}
	if adaptive.Stats.MisplacedFetches >= static.Stats.RemoteFetches {
		t.Fatalf("misplaced-fetch accounting out of range: %d", adaptive.Stats.MisplacedFetches)
	}
}

// faultyMigrationRun drives a 4-node producer-consumer workload whose single
// page is homed on node 1 (the old home) while node 2 writes it every epoch,
// with a fault plan crashing node 1 at the given time and restarting it
// later. Returns the final value read after the run and the fingerprint.
func faultyMigrationRun(t *testing.T, crashAt dsmpm2.Duration) (uint64, string, dsmpm2.Stats, dsmpm2.RecoveryStats) {
	t.Helper()
	const nodes, rounds = 4, 10
	sys := dsmpm2.MustNew(dsmpm2.Config{
		Nodes: nodes, Protocol: "hbrc_mw", Seed: 9, AdaptiveHomes: true,
	})
	base := sys.MustMalloc(1, dsmpm2.PageSize, &dsmpm2.Attr{Protocol: -1, Home: 1})
	bar := sys.NewBarrier(nodes)

	// lastDone[n] is node n's checkpoint: the last round it completed.
	lastDone := make([]int, nodes)
	for i := range lastDone {
		lastDone[i] = -1
	}
	runWorker := func(th *dsmpm2.Thread, node, start int) {
		for r := start; r < rounds; r++ {
			if node == 2 {
				th.WriteUint64(base, uint64(1000+r))
			} else if node != 1 {
				th.ReadUint64(base)
			}
			th.Flush()
			lastDone[node] = r
			th.BarrierAs(bar, node, r)
		}
	}
	plan := dsmpm2.NewFaultPlan(5)
	plan.Crash(dsmpm2.Time(crashAt), 1)
	plan.Restart(dsmpm2.Time(crashAt)+dsmpm2.Time(3*dsmpm2.Millisecond), 1)
	if err := sys.InjectFaults(plan, dsmpm2.FaultOptions{
		OnRestart: func(node int) {
			done := lastDone[node]
			sys.Spawn(node, fmt.Sprintf("w%d.r", node), func(th *dsmpm2.Thread) {
				if done >= 0 {
					th.BarrierAs(bar, node, done)
				}
				runWorker(th, node, done+1)
			})
		},
	}); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < nodes; n++ {
		n := n
		sys.Spawn(n, fmt.Sprintf("w%d", n), func(th *dsmpm2.Thread) {
			runWorker(th, n, 0)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("crashAt=%v: %v", crashAt, err)
	}
	var got uint64
	sys.Spawn(3, "check", func(th *dsmpm2.Thread) { got = th.ReadUint64(base) })
	if err := sys.Run(); err != nil {
		t.Fatalf("crashAt=%v readback: %v", crashAt, err)
	}
	return got, sys.Fingerprint(), sys.Stats(), sys.RecoveryStats()
}

// TestFaultyMigrationResolvesOnce sweeps the old home's crash time across a
// window covering the epochs where the 1->2 home migration is decided and
// the svcMigrateHome handshake runs. Whatever instant the crash lands on —
// before the decision, mid-handshake, after commit — the run must complete
// with the correct final value (a pooled-frame double-free would corrupt
// it), the handshake must resolve exactly once (by the handshake itself or
// by the recovery sweep, never both: the page ends at node 2 either way and
// is never re-homed twice in one epoch), and the replay must be
// bit-identical.
func TestFaultyMigrationResolvesOnce(t *testing.T) {
	const rounds = 10
	for us := 200; us <= 3400; us += 200 {
		crashAt := dsmpm2.Duration(us) * dsmpm2.Microsecond
		t.Run(fmt.Sprintf("crashAt=%dus", us), func(t *testing.T) {
			got, fp, st, rec := faultyMigrationRun(t, crashAt)
			if want := uint64(1000 + rounds - 1); got != want {
				t.Fatalf("final value %d, want %d (stats %+v, recovery %+v)", got, want, st, rec)
			}
			if st.HomeMigrations > 2 {
				t.Fatalf("page re-homed %d times — the handshake did not resolve once (recovery %+v)",
					st.HomeMigrations, rec)
			}
			got2, fp2, _, _ := faultyMigrationRun(t, crashAt)
			if got2 != got || fp2 != fp {
				t.Fatalf("faulty-migration replay diverged: value %d vs %d", got, got2)
			}
		})
	}
}
