package dsmpm2_test

// Regression test for the retry path of recovery-mode protocol waits: a
// loss-heavy fault plan must still converge and replay bit-identically.

import (
	"testing"

	"dsmpm2"
	"dsmpm2/internal/bench"
)

// runLossy drives a loss-heavy data-plane workload: four writer nodes share
// pages homed on node 1 and every writer<->home link drops 45% of its
// messages both ways, so page fetches and release diffs routinely need
// several retries. Per the documented fault
// model the synchronization manager (node 0) keeps reliable links. Returns
// the system for fingerprinting after verifying the data converged.
func runLossy(t *testing.T) *dsmpm2.System {
	t.Helper()
	const (
		home    = 1
		writers = 4
		rounds  = 12
	)
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2 + writers, Protocol: "hbrc_mw", Seed: 5})
	plan := dsmpm2.NewFaultPlan(21)
	for w := 2; w < 2+writers; w++ {
		plan.Loss(0, w, home, 0.45, 0)
		plan.Loss(0, home, w, 0.45, 0)
	}
	if err := sys.InjectFaults(plan, dsmpm2.FaultOptions{}); err != nil {
		t.Fatal(err)
	}

	// One page per writer, all homed on the lossy node.
	pages := make([]dsmpm2.Addr, writers)
	for i := range pages {
		pages[i] = sys.MustMalloc(home, dsmpm2.PageSize, &dsmpm2.Attr{Protocol: -1, Home: home})
	}
	lock := sys.NewLock(0)
	for i := 0; i < writers; i++ {
		i := i
		sys.Spawn(2+i, "writer", func(th *dsmpm2.Thread) {
			for r := 0; r < rounds; r++ {
				th.Acquire(lock)
				// Read a neighbour's page (fetch over a lossy link), then
				// bump our own counter (diff home over a lossy link).
				peer := th.ReadUint64(pages[(i+1)%writers])
				th.WriteUint64(pages[i]+8, peer)
				th.WriteUint64(pages[i], th.ReadUint64(pages[i])+1)
				th.Release(lock)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("lossy run wedged: %v", err)
	}

	var got [writers]uint64
	sys.Spawn(0, "reader", func(th *dsmpm2.Thread) {
		th.Acquire(lock)
		for i := range got {
			got[i] = th.ReadUint64(pages[i])
		}
		th.Release(lock)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != rounds {
			t.Fatalf("writer %d counter = %d, want %d (lossy run lost updates; faults %+v)",
				i, v, rounds, sys.FaultStats())
		}
	}
	return sys
}

// TestRetriesConvergeUnderHeavyLoss: a loss-heavy plan still converges to the
// correct data through the fixed retry timeout, the retry path is actually
// exercised, and the run replays bit-identically.
func TestRetriesConvergeUnderHeavyLoss(t *testing.T) {
	sys := runLossy(t)
	if sys.RecoveryStats().Retries == 0 {
		t.Fatalf("no retries under 45%% loss — the regression is not exercising the retry path")
	}
	if sys.FaultStats().Dropped == 0 {
		t.Fatalf("no messages dropped — the plan is not loss-heavy")
	}
	// Replay determinism: loss draws come from the plan's seeded PRNG, so the
	// same plan must reproduce the same trace bit-for-bit.
	if a, b := bench.TraceFingerprint(sys), bench.TraceFingerprint(runLossy(t)); a != b {
		t.Fatalf("lossy replay diverged: %s vs %s", a, b)
	}
}
