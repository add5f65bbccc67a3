package dsmpm2

import (
	"fmt"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// Fault injection and recovery, re-exported from the internal layers. A
// FaultPlan is a declarative, seed-driven schedule of node crashes/restarts,
// link partitions/heals and message loss; injecting it into a System turns
// on the network fault layer and the DSM recovery manager, and replays of
// the same seed + plan are bit-identical.

type (
	// FaultPlan is a reproducible schedule of fault events; see
	// sim.FaultPlan. Event times are offsets from the InjectFaults call.
	FaultPlan = sim.FaultPlan
	// FaultEvent is one scheduled fault.
	FaultEvent = sim.FaultEvent
	// FaultKind enumerates fault event kinds.
	FaultKind = sim.FaultKind
	// PartitionPolicy selects queue-until-heal or drop semantics for
	// partitioned links.
	PartitionPolicy = madeleine.PartitionPolicy
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

// Partition policies.
const (
	// PartitionQueue holds messages on a partitioned link and delivers
	// them, FIFO, when it heals (reliable transport under a transient
	// partition). The default.
	PartitionQueue = madeleine.PartitionQueue
	// PartitionDrop discards messages sent over a partitioned link.
	PartitionDrop = madeleine.PartitionDrop
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

// RecoveryTuning is the retry-timing half of fault injection, settable
// cluster-wide on Config.Recovery (FaultOptions overrides it field-by-field
// at injection time). All decisions it parameterizes are deterministic: the
// backoff is a pure function of the attempt number and the jitter comes from
// a private seeded PRNG, so tuned runs replay bit-identically.
type RecoveryTuning struct {
	// Timeout bounds blocking protocol waits in recovery mode; zero uses
	// core.DefaultRecoveryTimeout (5 ms virtual).
	Timeout Duration
	// Backoff scales the retry timeout exponentially across consecutive
	// retries of one protocol action (attempt k waits Timeout·Backoff^k);
	// values <= 1 keep the historical flat timeout.
	Backoff float64
	// RetryMax caps the backed-off timeout; zero means no cap.
	RetryMax Duration
	// Jitter adds a deterministic pseudo-random delay in [0, Jitter) to
	// every bounded wait, de-synchronizing retry storms; zero draws nothing.
	Jitter Duration
	// JitterSeed seeds the jitter PRNG (zero means 1).
	JitterSeed int64
}

// merged overlays the per-injection options over the cluster-wide tuning:
// any field set on opts wins.
func (r RecoveryTuning) merged(opts FaultOptions) RecoveryTuning {
	if opts.Timeout != 0 {
		r.Timeout = opts.Timeout
	}
	if opts.Backoff != 0 {
		r.Backoff = opts.Backoff
	}
	if opts.RetryMax != 0 {
		r.RetryMax = opts.RetryMax
	}
	if opts.Jitter != 0 {
		r.Jitter = opts.Jitter
	}
	if opts.JitterSeed != 0 {
		r.JitterSeed = opts.JitterSeed
	}
	return r
}

// FaultOptions tunes fault injection.
type FaultOptions struct {
	// Partition selects what happens on partitioned links (default:
	// PartitionQueue).
	Partition PartitionPolicy
	// Timeout bounds blocking protocol waits in recovery mode; zero uses
	// core.DefaultRecoveryTimeout (5 ms virtual).
	Timeout Duration
	// Backoff scales the retry timeout exponentially across consecutive
	// retries of one protocol action (attempt k waits Timeout·Backoff^k);
	// values <= 1 keep the historical flat timeout. See
	// core.RecoveryConfig.Backoff.
	Backoff float64
	// RetryMax caps the backed-off timeout; zero means no cap.
	RetryMax Duration
	// Jitter adds a deterministic pseudo-random delay in [0, Jitter) to
	// every bounded wait, de-synchronizing retry storms; zero draws nothing.
	Jitter Duration
	// JitterSeed seeds the jitter PRNG (zero means 1).
	JitterSeed int64
	// OnRestart runs in engine context after a crashed node's DSM state
	// has been rebuilt — the hook for respawning the node's workers. It
	// must not block (spawning threads is fine).
	OnRestart func(node int)
}

// enableFaultLayers switches on the network fault layer and the DSM recovery
// manager (idempotently), the shared half of both injection paths.
func (s *System) enableFaultLayers(seed int64, opts FaultOptions) {
	if !s.rt.Network().FaultsEnabled() {
		s.rt.EnableFaults(seed, opts.Partition)
	}
	if !s.dsm.RecoveryEnabled() {
		tune := s.cfg.Recovery.merged(opts)
		s.dsm.EnableRecovery(core.RecoveryConfig{
			Timeout:    tune.Timeout,
			Backoff:    tune.Backoff,
			RetryMax:   tune.RetryMax,
			Jitter:     tune.Jitter,
			JitterSeed: tune.JitterSeed,
			OnRestart:  opts.OnRestart,
		})
	}
}

// InjectFaults arms the system with a fault plan: the network fault layer
// and the DSM recovery manager switch on, and each plan event fires at
// now + event.At. Call it at the point of the simulation the plan's clock
// should start from (typically after setup phases), and before the Run that
// should experience the faults. A nil plan is a no-op.
//
// The events go through a resumable cursor (sim.FaultCursor): only the next
// pending event is in the queue, System.Run arms it, and the cursor's
// position serializes into a Checkpoint. An event that falls due after every
// application thread has finished does not fire in that Run's drain: it
// parks and fires in the next Run. So a run chunked at safe points sees each
// event in the first chunk that has live work.
//
// Recovery assumes fail-stop nodes and at least one survivor per page
// replica set; synchronization managers (lock homes, barrier manager node
// 0) must be protected nodes — crash them and their state dies for good.
//
// A plan the system cannot run is refused before anything is armed: one that
// fails FaultPlan.Validate, or one whose events name a node or a link
// endpoint this system does not have.
func (s *System) InjectFaults(plan *FaultPlan, opts FaultOptions) error {
	if plan == nil {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	for i, ev := range plan.Events {
		if n := s.rt.Nodes(); ev.Node >= n || ev.From >= n || ev.To >= n {
			return fmt.Errorf("dsmpm2: fault plan event %d (%s) names node %d, %d->%d in a %d-node system",
				i, ev.Kind, ev.Node, ev.From, ev.To, n)
		}
	}
	s.enableFaultLayers(plan.Seed, opts)
	s.faultPlan = plan
	s.faultOpts = opts
	// Not armed here: System.Run arms before every phase, and an event queued
	// outside a Run would spoil the drained safe point a checkpoint needs.
	s.cursor = s.rt.Engine().NewFaultCursor(plan, s.applyFault)
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

// FaultStats reports the network fault layer's counters (zero value when no
// plan was injected).
func (s *System) FaultStats() FaultStats { return s.rt.Network().FaultStats() }

// RecoveryStats reports the DSM recovery manager's counters (zero value
// when no plan was injected).
func (s *System) RecoveryStats() RecoveryStats { return s.dsm.RecoveryStats() }

// NodeDead reports whether node n is currently crashed.
func (s *System) NodeDead(n int) bool { return s.dsm.NodeDead(n) }

// BarrierGen reports the number of completed generations of a barrier;
// restart-aware applications use it with Thread.BarrierAs.
func (s *System) BarrierGen(id int) int { return s.dsm.BarrierGen(id) }

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
