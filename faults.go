package dsmpm2

import (
	"fmt"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// Fault injection and recovery, re-exported from the internal layers. A
// FaultPlan is a declarative, seed-driven schedule of node crashes/restarts,
// link partitions/heals and message loss. Every System is ready for failure:
// the network fault layer and the DSM recovery manager are always there, and
// injecting a plan only schedules its events. Replays of the same seed + plan
// are bit-identical.

type (
	// FaultPlan is a reproducible schedule of fault events; see
	// sim.FaultPlan. Event times are offsets from the InjectFaults call.
	FaultPlan = sim.FaultPlan
	// FaultEvent is one scheduled fault.
	FaultEvent = sim.FaultEvent
	// FaultKind enumerates fault event kinds.
	FaultKind = sim.FaultKind
	// FaultStats aggregates the network fault layer's counters.
	FaultStats = madeleine.FaultStats
	// RecoveryStats counts the DSM recovery manager's work.
	RecoveryStats = core.RecoveryStats
)

// Fault event kinds.
const (
	FaultNodeCrash     = sim.FaultNodeCrash
	FaultNodeRestart   = sim.FaultNodeRestart
	FaultLinkPartition = sim.FaultLinkPartition
	FaultLinkHeal      = sim.FaultLinkHeal
	FaultLinkLoss      = sim.FaultLinkLoss
)

// NewFaultPlan returns an empty plan with the given loss-PRNG seed, to be
// populated with the Crash/Restart/Partition/Heal/Loss builder methods.
func NewFaultPlan(seed int64) *FaultPlan { return &FaultPlan{Seed: seed} }

// LoadFaultPlan reads a plan from a JSON file.
var LoadFaultPlan = sim.LoadFaultPlan

// GenerateMTBFPlan builds a crash/restart plan from an exponential failure
// model (mean time between failures, fixed repair time) over [0, horizon),
// sparing the protected nodes. Deterministic per seed.
var GenerateMTBFPlan = sim.GenerateMTBFPlan

// FaultOptions tunes fault injection.
type FaultOptions struct {
	// OnRestart runs in engine context after a crashed node's DSM state
	// has been rebuilt — the hook for respawning the node's workers. It
	// must not block (spawning threads is fine).
	OnRestart func(node int)
}

// InjectFaults arms the system with a fault plan: its seed seeds the loss
// draws, opts.OnRestart becomes the restart hook, and each event fires at
// now + event.At. Call it at the point the plan's clock should start from
// (typically after setup phases), before the Run that should experience the
// faults. A nil plan is a no-op.
//
// The events go through a cursor (sim.FaultCursor): only the next pending
// event is in the queue, and System.Run arms it. An event that falls due
// after every application thread has finished does not fire in that Run's
// drain: it parks and fires in the next Run, the first with live work.
//
// Recovery assumes fail-stop nodes and at least one survivor per page
// replica set; synchronization managers (lock homes, barrier manager node
// 0) must be protected nodes — crash them and their state dies for good.
//
// Partitioned links hold their traffic until they heal, and lossy links
// send what they lose again, so the DSM sees reliable FIFO links; a crash
// wakes, at its instant, every protocol wait it strands. No protocol wait
// polls: a plan that does nothing leaves the run as it was.
//
// A plan the system cannot run is refused before anything is armed: one that
// fails FaultPlan.Validate, or one whose events name a node or a link
// endpoint this system does not have. A system takes one plan: a second
// call is refused too, since the loss seed and the restart hook are fixed by
// the first.
func (s *System) InjectFaults(plan *FaultPlan, opts FaultOptions) error {
	if plan == nil {
		return nil
	}
	if s.cursor != nil {
		return fmt.Errorf("dsmpm2: a fault plan is already injected; a system takes one plan")
	}
	if err := checkPlan(plan, s.rt.Nodes()); err != nil {
		return err
	}
	s.rt.Network().SeedLoss(plan.Seed)
	s.dsm.OnRestart(opts.OnRestart)
	s.faultPlan = plan
	// Not armed here: System.Run arms before every phase.
	s.cursor = s.rt.Engine().NewFaultCursor(plan, s.applyFault)
	return nil
}

// checkPlan refuses a plan an n-node system cannot run: one that fails
// FaultPlan.Validate, or one whose events name a node or a link endpoint
// the system does not have.
func checkPlan(plan *FaultPlan, n int) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	for i, ev := range plan.Events {
		if ev.Node >= n || ev.From >= n || ev.To >= n {
			return fmt.Errorf("dsmpm2: fault plan event %d (%s) names node %d, %d->%d in a %d-node system",
				i, ev.Kind, ev.Node, ev.From, ev.To, n)
		}
	}
	return nil
}

// applyFault routes one fault event to the layer that implements it.
func (s *System) applyFault(ev FaultEvent) {
	switch ev.Kind {
	case sim.FaultNodeCrash:
		s.dsm.CrashNode(ev.Node)
	case sim.FaultNodeRestart:
		s.dsm.RestartNode(ev.Node)
	default:
		s.rt.Network().ApplyFault(ev)
	}
}

// FaultStats reports the network fault layer's counters, crashes and
// restarts among them.
func (s *System) FaultStats() FaultStats { return s.rt.Network().FaultStats() }

// RecoveryStats reports the DSM recovery manager's counters.
func (s *System) RecoveryStats() RecoveryStats { return s.dsm.RecoveryStats() }

// NodeDead reports whether node n is currently crashed.
func (s *System) NodeDead(n int) bool { return s.dsm.NodeDead(n) }

// BarrierAs is Thread.Barrier with an explicit participant identity and the
// participant's generation: arrivals become idempotent per generation, so a
// participant respawned after a crash re-arrives for the last generation it
// completed and takes over its dead predecessor's slot instead of
// over-counting. See core.DSM.BarrierAs.
func (t *Thread) BarrierAs(bar, participant, gen int) {
	start := t.begin()
	t.sys.dsm.BarrierAs(t.th, bar, participant, gen)
	t.end("barrier", start)
}

// Flush commits this thread's unflushed writes by running the active
// protocols' release actions, with no barrier or lock RPC attached.
// Restart-aware applications flush before recording a checkpoint: the
// checkpoint must never claim work whose diffs would die with the node.
func (t *Thread) Flush() {
	start := t.begin()
	t.sys.dsm.FlushRelease(t.th)
	t.end("flush", start)
}
