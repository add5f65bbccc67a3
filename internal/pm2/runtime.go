// Package pm2 models the PM2 (Parallel Multithreaded Machine) runtime system
// that DSM-PM2 is layered on: a distributed set of nodes, a POSIX-like
// user-level thread package (Marcel), an RPC mechanism built on the
// Madeleine communication library, and preemptive iso-address thread
// migration (Section 2.1 of the paper).
//
// RPC services run a thread per invocation (per busy stretch when serial), as
// PM2's do, so a thread must be as cheap here as a Marcel thread is there: it
// is one object, creating one formats and hashes nothing, and the runtime
// lists only unfinished threads — a thread that returns or is killed unlinks
// itself; a returned handler's descriptor serves its service's next request,
// anything else is garbage.
// Quick services, whose handlers never block, run on no thread at all.
package pm2

import (
	"fmt"

	"dsmpm2/internal/freelist"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// DescriptorBytes is the size of a thread descriptor moved along with the
// stack on migration.
const DescriptorBytes = 256

// Runtime is a simulated PM2 machine: a cluster of nodes sharing one sim
// engine — one event loop — and one network.
type Runtime struct {
	eng   *sim.Engine
	net   *madeleine.Network
	nodes []*Node
	cpus  int // CPUs per node, kept for rebuilding a restarted node's CPU

	// nextID is the last thread id handed out (ids run 1, 2, 3, ...), and
	// so the number of threads created.
	nextID int

	// live lists the machine's unfinished threads in creation order. A
	// finished or killed thread unlinks itself, so the runtime holds nothing
	// of it.
	live threadList

	// svcIDs caches service name -> interned request-channel id, so
	// per-message sends skip both the "rpc:" concatenation and the
	// network's name table.
	svcIDs map[string]madeleine.ChanID
	// reqFree recycles request envelopes (see Request).
	reqFree freelist.List[*Request]
}

// Config describes a PM2 machine.
type Config struct {
	Nodes       int
	CPUsPerNode int // defaults to 1, as in the paper's PII nodes

	// Network is the uniform-interconnect shorthand: every node pair uses
	// this one profile (default BIPMyrinet). Topology, when set, takes
	// precedence and resolves costs per (src,dst) link.
	Network  *madeleine.Profile
	Topology madeleine.Topology

	// LinkContention enables FIFO bandwidth occupancy on each directed
	// link: concurrent transfers crossing one link queue instead of
	// overlapping for free. Off by default — the paper's calibrated
	// latencies are single-message costs.
	LinkContention bool

	Seed int64
}

// NewRuntime builds a PM2 machine from cfg.
func NewRuntime(cfg Config) *Runtime {
	if cfg.Nodes < 1 {
		panic("pm2: need at least one node")
	}
	if cfg.CPUsPerNode == 0 {
		cfg.CPUsPerNode = 1
	}
	topo := cfg.Topology
	if topo == nil {
		prof := cfg.Network
		if prof == nil {
			prof = madeleine.BIPMyrinet
		}
		topo = madeleine.NewUniform(prof)
	}
	eng := sim.NewEngine(cfg.Seed)
	rt := &Runtime{
		eng:    eng,
		net:    madeleine.NewNetworkTopology(eng, topo, cfg.Nodes),
		cpus:   cfg.CPUsPerNode,
		svcIDs: make(map[string]madeleine.ChanID),
	}
	rt.net.SetLinkContention(cfg.LinkContention)
	for i := 0; i < cfg.Nodes; i++ {
		rt.nodes = append(rt.nodes, &Node{
			rt:       rt,
			ID:       i,
			CPU:      sim.NewResource(cfg.CPUsPerNode),
			services: make(map[string]*service),
		})
	}
	return rt
}

// Engine returns the sim engine driving this machine.
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Network returns the machine's interconnect.
func (rt *Runtime) Network() *madeleine.Network { return rt.net }

// Profile returns the uniform interconnect profile, or nil when the machine
// runs over a heterogeneous topology (use Link for per-pair costs).
func (rt *Runtime) Profile() *madeleine.Profile { return rt.net.Profile() }

// Topology returns the interconnect topology.
func (rt *Runtime) Topology() madeleine.Topology { return rt.net.Topology() }

// Link returns the cost profile governing messages from src to dst.
func (rt *Runtime) Link(src, dst int) *madeleine.Profile { return rt.net.Link(src, dst) }

// Nodes reports the number of nodes.
func (rt *Runtime) Nodes() int { return len(rt.nodes) }

// ThreadCount reports the total number of threads created on this machine,
// including RPC handler threads (one per threaded invocation or serial busy
// stretch, however often a descriptor was reused; quick services make none).
func (rt *Runtime) ThreadCount() int { return rt.nextID }

// Node returns node i.
func (rt *Runtime) Node(i int) *Node {
	if i < 0 || i >= len(rt.nodes) {
		panic(fmt.Sprintf("pm2: node %d out of range [0,%d)", i, len(rt.nodes)))
	}
	return rt.nodes[i]
}

// Run drives the machine until all non-daemon threads finish.
func (rt *Runtime) Run() error { return rt.eng.Run() }

// Now returns the current virtual time.
func (rt *Runtime) Now() sim.Time { return rt.eng.Now() }

// Node is one computing node of the PM2 machine. Threads located on the
// node share its CPUs; RPC services registered on it serve remote requests.
type Node struct {
	rt  *Runtime
	ID  int
	CPU *sim.Resource

	services map[string]*service
	// svcOrder lists service names in registration order, so a restarted
	// node reconnects its services deterministically.
	svcOrder []string

	// vecFree holds the node's released vector calls (see VecCall).
	vecFree freelist.List[*VecCall]

	// dead marks a crashed node (see fault.go).
	dead bool

	// Stats
	ThreadsSpawned  int
	MigrationsIn    int
	MigrationsOut   int
	HandlersSpawned int // requests delivered to the node's services
	Restarts        int
}

// Runtime returns the machine this node belongs to.
func (n *Node) Runtime() *Runtime { return n.rt }

// threadList is an intrusive doubly-linked list of threads in insertion
// order. Unlinking is O(1) and never reorders the rest: the order of the
// machine-wide list is creation order, which reaches virtual time through
// KillNode's joiner releases and the balancer's victim choice.
type threadList struct {
	head, tail *Thread
}

func (l *threadList) pushBack(t *Thread) {
	t.prev, t.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
}

// unlink removes t from its runtime's live list.
func (t *Thread) unlink() {
	l := &t.rt.live
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		l.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.prev, t.next = nil, nil
}
