package pm2

import (
	"fmt"

	"dsmpm2/internal/sim"
)

// Thread is a Marcel-style user-level thread. It executes on a simulated
// node, consumes that node's CPU for its compute phases, and can migrate
// preemptively to another node, carrying its stack and descriptor at the
// same virtual addresses thanks to the iso-address allocation scheme.
//
// In this reproduction the coroutine backing the thread never moves — only
// the thread's simulated location changes, and the migration latency
// (a function of the stack size, as in Table 4) is charged on the network.
// DSM protocols only observe the location and the latency, so the semantics
// they depend on are preserved.
type Thread struct {
	proc sim.Proc // by value: descriptor and proc are one object (see Engine.SpawnInto)
	rt   *Runtime

	// What the thread runs (see Run): fn for an application thread, else svc's
	// handler on req. The thread is its own proc body: neither costs a closure.
	fn  func(t *Thread)
	svc *service
	req *Request

	id        int
	node      int // current simulated location
	stackSize int

	// reply is the thread's reusable RPC reply queue. A thread has at
	// most one synchronous Call outstanding (Call blocks until the single
	// reply is consumed), so one channel serves its whole lifetime.
	reply *sim.Chan

	migrations int
	joiners    []*sim.Proc

	// prev and next link the thread into Runtime.live until it finishes or
	// is killed.
	prev, next *Thread

	// Load-balancing state: a pending preemptive migration request (-1 for
	// none; 32 bits keep the descriptor in the allocator's 240-byte class) and
	// whether the balancer may move this thread at all.
	pendingDest int32
	migratable  bool
	done        bool
}

// DefaultStackSize matches the paper's "very small" test-thread stack of
// about 1 KiB; applications may ask for more via CreateThreadStack.
const DefaultStackSize = 1024

// CreateThread starts fn in a new thread on the given node with the default
// stack size.
func (rt *Runtime) CreateThread(node int, name string, fn func(t *Thread)) *Thread {
	return rt.CreateThreadStack(node, name, DefaultStackSize, fn)
}

// CreateThreadStack starts fn in a new thread on node with an explicit stack
// size in bytes. The stack size drives migration cost.
func (rt *Runtime) CreateThreadStack(node int, name string, stack int, fn func(t *Thread)) *Thread {
	return rt.start(node, name, stack, &Thread{fn: fn})
}

// start fills in the descriptor of a new thread on node and spawns it.
func (rt *Runtime) start(node int, name string, stack int, t *Thread) *Thread {
	if stack <= 0 {
		stack = DefaultStackSize
	}
	n := rt.Node(node)
	n.checkAlive("CreateThread") // validate
	rt.nextID++
	t.id = rt.nextID
	t.rt, t.node, t.stackSize, t.pendingDest = rt, node, stack, -1
	rt.live.pushBack(t)
	rt.eng.SpawnInto(&t.proc, name, rt.eng.Now(), t)
	n.ThreadsSpawned++
	return t
}

// Run is the thread's proc body (sim.Runner): its function or service
// handler, then the exit — leave the live list, release joiners. A handler's
// descriptor then goes back to its service for the next request (deliver
// never let its handle out, so nothing can still name it); a killed thread
// never gets here, and an application thread's is its creator's to keep.
func (t *Thread) Run(*sim.Proc) {
	if t.fn != nil {
		t.fn(t)
	} else {
		t.svc.handle(t)
	}
	t.finish()
	for _, j := range t.joiners {
		j.Unpark()
	}
	t.joiners = nil
	if t.fn == nil {
		t.svc.free.Put(t)
	}
}

// finish marks t done and drops it from its live list, on return of its
// function or on a kill.
func (t *Thread) finish() {
	t.done = true
	t.unlink()
}

// ReplyQueue returns the thread's reusable reply queue, the one its Calls are
// answered on. Between Calls the thread may collect other replies there —
// exactly as many as it caused, so that the queue is empty again for its next
// Call (the DSM's invalidation acks do).
func (t *Thread) ReplyQueue() *sim.Chan {
	if t.reply == nil {
		t.reply = new(sim.Chan)
	}
	return t.reply
}

// ID returns the thread's machine-wide id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.proc.Name() }

// Proc exposes the underlying sim proc.
func (t *Thread) Proc() *sim.Proc { return &t.proc }

// Runtime returns the machine the thread runs on.
func (t *Thread) Runtime() *Runtime { return t.rt }

// Node returns the node the thread is currently located on.
func (t *Thread) Node() int { return t.node }

// Migrations returns how many times the thread has migrated.
func (t *Thread) Migrations() int { return t.migrations }

// Now returns the current virtual time.
func (t *Thread) Now() sim.Time { return t.proc.Now() }

// Advance consumes virtual time without occupying a CPU (waiting, message
// latencies charged by lower layers, etc.).
func (t *Thread) Advance(d sim.Duration) { t.proc.Advance(d) }

// Compute charges d of CPU time on the thread's current node. Threads
// sharing a node serialize here, which is how the load imbalance effects of
// Section 4 (Figure 4) arise. Compute boundaries are safe points: a pending
// balancer migration is honoured before the work is charged.
func (t *Thread) Compute(d sim.Duration) {
	t.checkPreempt()
	t.rt.nodes[t.node].CPU.Use(&t.proc, d)
}

// Yield lets other runnable threads at the same virtual time proceed. Yield
// is a safe point for preemptive migration.
func (t *Thread) Yield() {
	t.checkPreempt()
	t.proc.Yield()
}

// MigrateTo moves the thread to node dest, charging the migration latency of
// the src->dest link for its stack plus descriptor, as the PM2 migration
// mechanism does. The iso-address guarantee means the thread resumes with
// all its pointers valid. Migrating to the current node is a no-op.
func (t *Thread) MigrateTo(dest int) {
	if dest == t.node {
		return
	}
	t.rt.Node(dest) // validate
	src := t.node
	cost := t.rt.Link(src, dest).Migration(t.stackSize + DescriptorBytes)
	t.proc.Advance(cost)
	t.node = dest
	t.migrations++
	t.rt.nodes[src].MigrationsOut++
	t.rt.nodes[dest].MigrationsIn++
}

// Join blocks until other finishes. A thread must not join itself.
func (t *Thread) Join(other *Thread) {
	if other == t {
		panic(fmt.Sprintf("pm2: thread %q joining itself", t.Name()))
	}
	if other.done {
		return
	}
	other.joiners = append(other.joiners, &t.proc)
	t.proc.ParkFor("join", &other.proc)
}

// Done reports whether the thread's function has returned.
func (t *Thread) Done() bool { return t.done }
