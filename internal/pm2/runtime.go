// Package pm2 models the PM2 (Parallel Multithreaded Machine) runtime system
// that DSM-PM2 is layered on: a distributed set of nodes, a POSIX-like
// user-level thread package (Marcel), an RPC mechanism built on the
// Madeleine communication library, and preemptive iso-address thread
// migration (Section 2.1 of the paper).
//
// Threaded RPC services run a thread per invocation, as PM2's do, so a thread
// must be as cheap here as a Marcel thread is there: it is one object, creating
// one formats and hashes nothing, and the runtime lists only unfinished threads
// — a thread that returns or is killed unlinks itself; a returned handler's
// descriptor serves its service's next request, anything else is garbage.
package pm2

import (
	"fmt"
	"sync"

	"dsmpm2/internal/freelist"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// DescriptorBytes is the size of a thread descriptor moved along with the
// stack on migration.
const DescriptorBytes = 256

// Runtime is a simulated PM2 machine: a cluster of nodes sharing one sim
// engine and one network. With Config.Shards > 1 the machine runs sharded:
// one event loop per node cluster (see sim.ShardedEngine), every node pinned
// to its cluster's shard, and cross-cluster RPC traffic crossing shards as
// conservatively synchronized remote events. The single-loop configuration
// (Shards <= 1) takes the historical code paths bit-for-bit.
type Runtime struct {
	eng   *sim.Engine
	net   *madeleine.Network
	nodes []*Node
	cpus  int // CPUs per node, kept for rebuilding a restarted node's CPU

	// Sharded execution (nil/unused when single-loop).
	se        *sim.ShardedEngine
	nodeShard []int // node -> owning shard
	// svcMu guards svcIDs in sharded mode only.
	svcMu sync.RWMutex
	// shardNext is the per-shard thread-id counter: shard s hands out ids
	// s+1, s+1+Shards, s+1+2*Shards, ... so ids are unique machine-wide and
	// deterministic per shard regardless of cross-shard interleaving. With
	// one shard this degenerates to the historical 1,2,3,... sequence.
	shardNext []int
	// shardMade counts the threads each shard created in this process
	// (shardNext cannot serve: RestoreState moves it).
	shardMade []int

	// live lists the single-loop machine's unfinished threads in creation
	// order; a sharded machine keeps one list per node instead (see
	// liveList). A finished or killed thread unlinks itself, so the runtime
	// holds nothing of it.
	live threadList

	// svcIDs caches service name -> interned request-channel id, so
	// per-message sends skip both the "rpc:" concatenation and the
	// network's name table.
	svcIDs map[string]madeleine.ChanID
	// reqFree recycles rpcReq envelopes (see rpcReq). Sharded machines
	// bypass the pool: it would put a lock on every RPC.
	reqFree freelist.List[*rpcReq]
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

	// Shards > 1 runs the machine on that many parallel event loops, nodes
	// partitioned by the topology's clusters (Hierarchical topologies with
	// a matching cluster count shard along their cluster boundaries;
	// anything else falls back to contiguous equal blocks). The inter-shard
	// lookahead is derived from the cheapest cross-shard message cost, so
	// the slow backbone of a hierarchical machine is exactly the slack the
	// conservative synchronization needs. 0 or 1 is the single-loop mode.
	Shards int

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
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	var eng *sim.Engine
	var se *sim.ShardedEngine
	var nodeShard []int
	if cfg.Shards > 1 {
		nodeShard = shardMap(topo, cfg.Nodes, cfg.Shards)
		look := lookaheads(topo, nodeShard, cfg.Shards)
		min := sim.Duration(0)
		for i := range look {
			for j, d := range look[i] {
				if i != j && d > 0 && (min == 0 || d < min) {
					min = d
				}
			}
		}
		se = sim.NewShardedEngine(cfg.Seed, cfg.Shards, min)
		for i := range look {
			for j, d := range look[i] {
				if i != j && d > 0 {
					se.SetLookahead(i, j, d)
				}
			}
		}
		eng = se.Shard(0)
	} else {
		eng = sim.NewEngine(cfg.Seed)
	}
	rt := &Runtime{
		eng:       eng,
		net:       madeleine.NewNetworkTopology(eng, topo, cfg.Nodes),
		cpus:      cfg.CPUsPerNode,
		se:        se,
		nodeShard: nodeShard,
		shardNext: make([]int, max(cfg.Shards, 1)),
		shardMade: make([]int, max(cfg.Shards, 1)),
		svcIDs:    make(map[string]madeleine.ChanID),
	}
	if se != nil {
		rt.net.BindSharded(se, nodeShard)
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

// shardMap assigns each node to a shard. A Hierarchical topology whose
// cluster count matches the shard count shards along its cluster boundaries
// (that is the configuration the sharded mode is designed for: the
// inter-cluster backbone is the lookahead); everything else falls back to
// contiguous equal blocks.
func shardMap(topo madeleine.Topology, nodes, shards int) []int {
	if h, ok := topo.(*madeleine.Hierarchical); ok && h.Clusters() == shards {
		out := make([]int, nodes)
		for i := range out {
			out[i] = h.ClusterOf(i)
		}
		return out
	}
	return madeleine.EvenClusters(nodes, shards)
}

// lookaheads derives the inter-shard lookahead matrix from the topology:
// for each ordered shard pair, the cheapest message the runtime can ever put
// on a link from a node of one to a node of the other. Every RPC-layer send
// charges at least min(CtrlMsg, RPCBase/2, XferBase) of its link's profile,
// so that bound is a safe conservative lookahead.
func lookaheads(topo madeleine.Topology, nodeShard []int, shards int) [][]sim.Duration {
	look := make([][]sim.Duration, shards)
	for i := range look {
		look[i] = make([]sim.Duration, shards)
	}
	n := len(nodeShard)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			si, sj := nodeShard[i], nodeShard[j]
			if si == sj {
				continue
			}
			p := topo.Link(i, j)
			d := p.CtrlMsg
			if half := p.RPCBase / 2; half < d {
				d = half
			}
			if p.XferBase < d {
				d = p.XferBase
			}
			if cur := look[si][sj]; cur == 0 || d < cur {
				look[si][sj] = d
			}
		}
	}
	return look
}

// Engine returns the sim engine driving this machine (shard 0's engine when
// sharded; use engFor for node-local scheduling).
func (rt *Runtime) Engine() *sim.Engine { return rt.eng }

// Sharded reports whether the machine runs on parallel event loops.
func (rt *Runtime) Sharded() bool { return rt.se != nil }

// ShardedEngine returns the sharded engine, or nil when single-loop.
func (rt *Runtime) ShardedEngine() *sim.ShardedEngine { return rt.se }

// ShardOf reports which shard owns node n (0 when single-loop).
func (rt *Runtime) ShardOf(n int) int {
	if rt.nodeShard == nil {
		return 0
	}
	return rt.nodeShard[n]
}

// engFor returns the engine that owns node n's events.
func (rt *Runtime) engFor(n int) *sim.Engine {
	if rt.se == nil {
		return rt.eng
	}
	return rt.se.Shard(rt.nodeShard[n])
}

// EngineFor returns the engine that owns node n's events: the engine whose
// clock and RNG a layer above must use for anything observed from node n's
// context. On a single-loop machine it is Engine(); on a sharded machine it
// is n's shard, whose clock (unlike Now()) is deterministic mid-run.
func (rt *Runtime) EngineFor(n int) *sim.Engine { return rt.engFor(n) }

// Shards reports the number of event-loop shards (1 when single-loop).
func (rt *Runtime) Shards() int {
	if rt.se == nil {
		return 1
	}
	return rt.se.Shards()
}

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
// including RPC server and handler threads (one per invocation, however often
// its descriptor was reused). On a sharded machine call it only when the
// machine is not running (each shard writes its own counter).
func (rt *Runtime) ThreadCount() int {
	n := 0
	for _, made := range rt.shardMade {
		n += made
	}
	return n
}

// Node returns node i.
func (rt *Runtime) Node(i int) *Node {
	if i < 0 || i >= len(rt.nodes) {
		panic(fmt.Sprintf("pm2: node %d out of range [0,%d)", i, len(rt.nodes)))
	}
	return rt.nodes[i]
}

// Run drives the machine until all non-daemon threads finish.
func (rt *Runtime) Run() error {
	if rt.se != nil {
		return rt.se.Run()
	}
	return rt.eng.Run()
}

// Now returns the current virtual time (the maximum over shard clocks when
// sharded).
func (rt *Runtime) Now() sim.Time {
	if rt.se != nil {
		return rt.se.Now()
	}
	return rt.eng.Now()
}

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

	// live lists the unfinished threads currently located on this node,
	// maintained only on sharded machines (where it is touched exclusively
	// from the owning shard's context): sharded node faults must find the
	// node's threads without walking — and racing on — a machine-wide list.
	live threadList

	// vecFree holds the node's released vector calls (see VecCall). Taken and
	// released by callers located on the node, so its shard alone touches it.
	vecFree freelist.List[*VecCall]

	// dead marks a crashed node (see fault.go).
	dead bool

	// Stats
	ThreadsSpawned  int
	MigrationsIn    int
	MigrationsOut   int
	HandlersSpawned int
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
	t.on, t.prev, t.next = l, l.tail, nil
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
}

// unlink removes t from the list it is on.
func (t *Thread) unlink() {
	l := t.on
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
	t.on, t.prev, t.next = nil, nil, nil
}

// liveList returns the list tracking unfinished threads located on node: the
// machine-wide creation-ordered list single-loop, the node's own when sharded.
func (rt *Runtime) liveList(node int) *threadList {
	if rt.se == nil {
		return &rt.live
	}
	return &rt.nodes[node].live
}
