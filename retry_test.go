package dsmpm2_test

// Regression test for link-level retransmission: a loss-heavy fault plan —
// on the data plane's links or on a lock manager's — must still converge and
// replay bit-identically.

import (
	"testing"

	"dsmpm2"
	"dsmpm2/internal/bench"
)

// lossyLinks names the links a runLossy case makes lossy: both directions
// between each writer (nodes 2..) and peer.
type lossyLinks struct {
	peer int     // node 1, the pages' home, or node 0, the lock manager
	drop float64 // the loss rate per transmission
}

// runLossy drives a loss-heavy workload: four writer nodes share pages homed
// on node 1 under a lock managed by node 0, and every writer<->peer link
// loses the given share of its transmissions both ways, so page fetches,
// release diffs, or lock acquires and releases routinely need several
// retransmissions. Returns the system for fingerprinting after verifying the
// data converged.
func runLossy(t *testing.T, ll lossyLinks) *dsmpm2.System {
	t.Helper()
	const (
		home    = 1
		writers = 4
		rounds  = 12
	)
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2 + writers, Protocol: "hbrc_mw", Seed: 5})
	plan := dsmpm2.NewFaultPlan(21)
	for w := 2; w < 2+writers; w++ {
		plan.Loss(0, w, ll.peer, ll.drop, 0)
		plan.Loss(0, ll.peer, w, ll.drop, 0)
	}
	if err := sys.InjectFaults(plan, dsmpm2.FaultOptions{}); err != nil {
		t.Fatal(err)
	}

	// One page per writer, all homed on node 1.
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
				// Read a neighbour's page (a fetch from the home), then
				// bump our own counter (a diff to the home).
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

// TestRetriesConvergeUnderHeavyLoss: loss-heavy plans still converge to the
// correct data through link-level retransmission, which is actually
// exercised, and replay bit-identically — with 45% loss on the data plane's
// writer<->home links, and with 20% loss on the lock manager's links, which
// wedged the run when the DSM waits re-sent on a timeout instead.
func TestRetriesConvergeUnderHeavyLoss(t *testing.T) {
	for name, ll := range map[string]lossyLinks{
		"home links":         {peer: 1, drop: 0.45},
		"lock manager links": {peer: 0, drop: 0.2},
	} {
		t.Run(name, func(t *testing.T) {
			sys := runLossy(t, ll)
			if sys.FaultStats().Retransmits == 0 {
				t.Fatalf("no retransmits: %+v", sys.FaultStats())
			}
			// Replay determinism: loss draws come from the plan's seeded
			// PRNG, so the same plan must reproduce the same trace.
			if a, b := bench.TraceFingerprint(sys), bench.TraceFingerprint(runLossy(t, ll)); a != b {
				t.Fatalf("lossy replay diverged: %s vs %s", a, b)
			}
		})
	}
}
