package pm2

import "dsmpm2/internal/sim"

// Dynamic load balancing (Section 2.1): "Such a functionality is typically
// useful to implement generic policies for dynamic load balancing,
// independently of the applications: the load of each processing node can be
// evaluated according to some measure, and balanced using preemptive
// migration."
//
// Preemption happens at scheduler points, as in Marcel: the balancer flags a
// thread, and the thread migrates itself at its next Compute/Yield boundary
// (a safe point), carrying its stack to the same iso-address on the target.

// RequestMigration asks the thread to move to dest at its next safe point.
// It may be called from any simulation context; the move is asynchronous.
func (t *Thread) RequestMigration(dest int) {
	t.rt.Node(dest) // validate
	t.pendingDest = int32(dest)
}

// SetMigratable marks the thread as a candidate for balancer-initiated
// migration. Threads are not migratable by default: service threads and
// threads pinned to their data must stay put.
func (t *Thread) SetMigratable(on bool) { t.migratable = on }

// checkPreempt honours a pending migration request; called at safe points.
func (t *Thread) checkPreempt() {
	if t.pendingDest >= 0 {
		dest := int(t.pendingDest)
		t.pendingDest = -1
		t.MigrateTo(dest)
	}
}

// Load reports the number of live application and threaded-handler threads
// currently located on node — the balancer's load measure. A serial service's
// handler is left out, as the server daemon it replaced was.
func (rt *Runtime) Load(node int) int {
	n := 0
	for t := rt.live.head; t != nil; t = t.next {
		if !t.proc.Daemon() && (t.fn != nil || t.svc.threaded) && t.node == node {
			n++
		}
	}
	return n
}

// Balancer periodically evaluates per-node load and evens it out with
// preemptive thread migration. One balancer daemon runs per machine.
type Balancer struct {
	rt       *Runtime
	interval sim.Duration
	stopped  bool

	// Moves counts balancer-initiated migrations (requested; a thread
	// that finishes before its next safe point never actually moves).
	Moves int
}

// StartBalancer launches the load-balancing daemon with the given sampling
// interval. Policy: whenever the most and least loaded nodes differ by more
// than one thread, one migratable thread moves from the former to the
// latter. The daemon retires when the machine has no live application
// threads left (so simulations terminate); start it after spawning the
// workers it should balance.
func (rt *Runtime) StartBalancer(interval sim.Duration) *Balancer {
	if interval <= 0 {
		interval = sim.Millisecond
	}
	b := &Balancer{rt: rt, interval: interval}
	daemon := rt.CreateThread(0, "load-balancer", func(t *Thread) {
		for !b.stopped && rt.eng.Live() > 0 {
			t.Advance(b.interval)
			b.step()
		}
	})
	daemon.Proc().MarkDaemon()
	return b
}

// step performs one balancing decision.
func (b *Balancer) step() {
	rt := b.rt
	loads := make([]int, rt.Nodes())
	for n := range loads {
		loads[n] = rt.Load(n)
	}
	max, min := 0, 0
	for n, l := range loads {
		if l > loads[max] {
			max = n
		}
		if l < loads[min] {
			min = n
		}
	}
	if loads[max]-loads[min] <= 1 {
		return
	}
	// Deterministic victim choice: the migratable thread with the lowest
	// id on the overloaded node that has no move pending. Thread ids
	// rise with creation, so that is the first match in the live list.
	for t := rt.live.head; t != nil; t = t.next {
		if t.migratable && t.node == max && t.pendingDest < 0 {
			t.RequestMigration(min)
			b.Moves++
			return
		}
	}
}
