package dsmpm2_test

// Golden-trace determinism tests: the kernel overhaul (typed events,
// calendar buckets, direct goroutine handoff, pooled pages and messages)
// must not move a single virtual-time timestamp. The fingerprint below was
// captured by running this exact workload on the pre-overhaul kernel
// (container/heap of *event, double switch per wake, unpooled buffers);
// the rewritten kernel must reproduce it bit for bit.

import (
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/bench"
	"dsmpm2/internal/core"
)

// goldenJacobiConfig is the pinned golden workload: a full jacobi run with
// enough nodes and iterations to exercise faults, diffs, barriers and
// multi-phase Run calls.
func goldenJacobiConfig() jacobi.Config {
	return jacobi.Config{
		N: 24, Iterations: 4, Nodes: 8,
		Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: 7,
	}
}

const (
	// goldenJacobiFingerprint hashes every FaultTiming field of the run's
	// TimingLog plus the final clock and stats. Re-pinned once when the
	// batched communication path became the default (multi-part envelopes,
	// barrier write notices): the pre-batching values were
	// b707c106e00ee96209ee79d9528198c20e8e315212d4918c868ee9c8ed7fd8f2 at
	// 1329800 ns — batching cut this run's virtual time by ~6.2% (see
	// EXPERIMENTS.md, "Communication batching"). Re-pinned again when
	// core.Stats gained the placement counters (RemoteFetches,
	// MisplacedFetches, HomeMigrations): the digest covers the stats
	// struct's rendered form, so new fields change the hash even at zero.
	// The previous digest was
	// d6e7cd418ca5960af807a11e8865b3e7e67d535c00ee5559666b9a5d5fa505a3;
	// the elapsed pin below is unchanged — with the profiler off, not one
	// virtual timestamp moved.
	goldenJacobiFingerprint = "17ff59c2123a7ca166e8666ef280cb9a58fd76c7be87a58975aef784672aac64"
	// goldenJacobiElapsed is the run's total virtual time, pinned
	// separately so a mismatch gives an immediately readable signal.
	goldenJacobiElapsed = dsmpm2.Time(1247233)
)

// TestGoldenJacobiTrace replays the golden workload and requires the exact
// pre-overhaul fault timings.
func TestGoldenJacobiTrace(t *testing.T) {
	res, err := jacobi.Run(goldenJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want := jacobi.SolveSerial(24, 4); res.Checksum != want {
		t.Fatalf("checksum %v, want %v", res.Checksum, want)
	}
	if res.Elapsed != goldenJacobiElapsed {
		t.Errorf("virtual elapsed = %d, want %d (kernel changed virtual timing)",
			res.Elapsed, goldenJacobiElapsed)
	}
	if fp := bench.TraceFingerprint(res.System); fp != goldenJacobiFingerprint {
		t.Errorf("trace fingerprint = %s,\nwant %s\n(fault timings diverged from the golden trace)",
			fp, goldenJacobiFingerprint)
	}
}

// TestGoldenJacobiReplayIdentical runs the workload twice in one process:
// same seed, bit-identical TimingLog.
func TestGoldenJacobiReplayIdentical(t *testing.T) {
	a, err := jacobi.Run(goldenJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := jacobi.Run(goldenJacobiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := bench.TraceFingerprint(a.System), bench.TraceFingerprint(b.System); fa != fb {
		t.Fatalf("same-seed replays diverged:\n%s\n%s", fa, fb)
	}
}

// TestDeadlockReportDeterministic: a deadlocking DSM workload produces the
// identical report on every replay (the sorted blocked-proc list the kernel
// builds is part of the determinism contract).
func TestDeadlockReportDeterministic(t *testing.T) {
	run := func() string {
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Seed: 3})
		lock := sys.NewLock(0)
		sys.Spawn(0, "holder", func(th *dsmpm2.Thread) {
			th.Acquire(lock) // never released
		})
		sys.Spawn(1, "blocked-a", func(th *dsmpm2.Thread) { th.Acquire(lock) })
		sys.Spawn(1, "blocked-b", func(th *dsmpm2.Thread) { th.Acquire(lock) })
		err := sys.Run()
		if err == nil {
			t.Fatal("deadlocked workload ran to completion")
		}
		return err.Error()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("deadlock reports diverged:\n%s\n%s", a, b)
	}
}

// TestGoldensPoisoned reruns the pinned traces with the core's
// use-after-free net on (core.PoisonFreed: freed records read as sentinels
// and are never reused). The goldens must not notice — recycling is
// invisible in virtual time — and a reader that outlived its record fails
// loudly. The faulty-jacobi leg poisons too: a run under recovery frees its
// records, diffs and evicted timings included, like a fault-free one.
func TestGoldensPoisoned(t *testing.T) {
	core.PoisonFreed = true
	defer func() { core.PoisonFreed = false }()
	t.Run("jacobi", TestGoldenJacobiTrace)
	t.Run("adaptive-jacobi", TestGoldenAdaptiveJacobiTrace)
	t.Run("faulty-jacobi", TestGoldenFaultyJacobiTrace)
}
