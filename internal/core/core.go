// Package core implements the generic layer of DSM-PM2: the DSM page
// manager, the DSM communication module, the protocol library toolbox, and
// the protocol policy layer (Section 2.2 of the paper, Figure 1).
//
// The core answers the paper's central question — "what are the features
// that need to be present in any DSM system?" — by providing, once and
// thread-safe: access detection, a distributed page table, the small set of
// DSM communication routines, synchronization objects with consistency
// hooks, and the instrumentation to profile all of it. A consistency
// protocol is then just a set of 8 routines (Table 1) registered with the
// policy layer.
package core

import (
	"fmt"
	"maps"
	"slices"

	"dsmpm2/internal/isomalloc"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Addr is a virtual address in the shared space.
type Addr = memory.Addr

// Page identifies a shared page.
type Page = memory.Page

// PageSize is the shared-page size. The paper's measurements use "a common
// 4 kB page".
const PageSize = 4096

// pageOf returns the shared page containing addr. Page arithmetic is a
// property of the constant page size, not of any node's Space.
func pageOf(addr Addr) Page { return Page(uint64(addr) / PageSize) }

// Costs gathers the protocol-independent CPU costs of the generic core,
// calibrated from Tables 3 and 4 of the paper.
type Costs struct {
	// Fault is the cost of catching an access fault and extracting its
	// parameters (the paper's "Page fault" row: 11us on all networks).
	Fault sim.Duration
	// Server is the request-processing cost on the owner/home node, and
	// Install the page-installation cost on the requesting node. Their
	// sum is the paper's page-policy "Protocol overhead" row (26us).
	Server  sim.Duration
	Install sim.Duration
	// MigOverhead is the protocol overhead of a migration-based fault
	// handler (Table 4: about 1us — "merely a call to the underlying
	// runtime").
	MigOverhead sim.Duration
	// Check is the cost of one inline locality check in the java_ic
	// protocol's get/put primitives.
	Check sim.Duration
	// DiffGap is the coalescing gap used when computing twin diffs.
	DiffGap int
}

// paperCosts is the paper-calibrated cost set every DSM charges.
var paperCosts = Costs{
	Fault:       11 * sim.Microsecond,
	Server:      13 * sim.Microsecond,
	Install:     13 * sim.Microsecond,
	MigOverhead: 1 * sim.Microsecond,
	Check:       300 * sim.Nanosecond,
	DiffGap:     8,
}

// nodeState is the per-node half of the DSM: this node's view of the shared
// address space and its slice of the distributed page table. The table is
// indexed like the Space's frames, two levels deep by page number, so a lookup
// hashes nothing. pages lists the table's pages in sorted order, maintained
// incrementally at entry creation so release-time sweeps never rebuild and
// re-sort it. dirty lists, sorted too, the pages marked written since their
// last release (see MarkDirty).
type nodeState struct {
	node  int
	space memory.Space
	table [][]*Entry
	pages []Page
	dirty []Page

	// notices are the write notices this node queued during the current
	// synchronization epoch, keyed by the barrier they were queued for;
	// that barrier's arrival piggybacks them (see outbox.go). Keying by
	// barrier keeps a concurrent thread's arrival at a different barrier
	// from walking off with them.
	notices map[int][]WriteNotice
}

// newNodeState is node n's state holding nothing: no frames, no entries.
func newNodeState(n int) *nodeState {
	return &nodeState{node: n, space: *memory.NewSpace(PageSize)}
}

// DSM is a DSM-PM2 instance spanning all nodes of a PM2 machine.
type DSM struct {
	rt    *pm2.Runtime
	alloc *isomalloc.Allocator
	costs Costs

	// bufs recycles page-sized buffers: wire copies of page transfers and
	// the twins of multiple-writer protocols.
	bufs *memory.BufPool
	// recs recycles the core's records (see records.go).
	recs recPools

	state []*nodeState
	// installers are the nodes' page installers, fed on installCh (see
	// install.go).
	installers  []*installer
	installCh   madeleine.ChanID
	installSink func(v interface{}) // deliverInstall, bound once
	svc         serviceIDs

	registry *Registry
	// instances holds the protocols instantiated so far, indexed by id, with
	// nil for one not yet used (see instance).
	instances []Protocol
	defProto  ProtoID

	// dir is the page directory: the allocation-time home and protocol of
	// every shared page, updated by protocol switches, home migration and
	// recovery re-homing.
	dir map[Page]pageInfo

	locks    []*lockState
	barriers []*barrierState
	conds    []*condState

	objects *objectSpace

	// recovery is the fault-recovery manager. See recovery.go.
	recovery recoveryState

	// prof is the sharing-pattern profiler and home-migration decision
	// engine: nil (and completely inert) until EnableProfiler is called.
	// See profiler.go and migrate.go.
	prof *profilerState

	// stats and timings are the DSM-wide counters and fault-timing ring;
	// faultSeq numbers the faults the ring's records are taken for.
	stats      Stats
	timings    TimingLog
	faultSeq   uint32
	nodeFaults []int64
}

// pageInfo is the allocation-time metadata for a shared page, known on every
// node (the real system distributes it when dsm_malloc updates the global
// table).
type pageInfo struct {
	home  int
	proto ProtoID
}

// New creates a DSM instance over the given PM2 machine, with the given
// protocol registry and the paper-calibrated costs. Registered protocols are
// instantiated per DSM.
func New(rt *pm2.Runtime, reg *Registry) *DSM {
	d := &DSM{
		rt:       rt,
		alloc:    isomalloc.New(rt.Nodes(), PageSize),
		costs:    paperCosts,
		bufs:     memory.NewBufPool(PageSize),
		registry: reg,
		defProto: -1,
		dir:      make(map[Page]pageInfo),
	}
	d.nodeFaults = make([]int64, rt.Nodes())
	d.installers = make([]*installer, rt.Nodes())
	for i := 0; i < rt.Nodes(); i++ {
		d.state = append(d.state, newNodeState(i))
	}
	d.objects = newObjectSpace(d)
	d.registerServices()
	d.rt.OnDrop(d.strandDropped)
	return d
}

// Runtime returns the underlying PM2 machine.
func (d *DSM) Runtime() *pm2.Runtime { return d.rt }

// Costs returns the core costs.
func (d *DSM) Costs() Costs { return d.costs }

// Space returns node's view of the shared address space. Protocol code uses
// it to install pages and set access rights.
func (d *DSM) Space(node int) *memory.Space { return &d.state[node].space }

// SetDefaultProtocol makes id the protocol for subsequent allocations that
// carry no explicit attribute (pm2_dsm_set_default_protocol).
func (d *DSM) SetDefaultProtocol(id ProtoID) {
	d.instance(id) // force instantiation; panics on unknown id
	d.defProto = id
}

// instance returns (instantiating on first use) the protocol instance for id.
func (d *DSM) instance(id ProtoID) Protocol {
	if int(id) < len(d.instances) && d.instances[id] != nil {
		return d.instances[id]
	}
	p := d.registry.newInstance(id, d)
	if int(id) >= len(d.instances) {
		d.instances = append(d.instances, make([]Protocol, int(id)+1-len(d.instances))...)
	}
	d.instances[id] = p
	return p
}

// eachInstance invokes fn on every instantiated protocol, in id order.
func (d *DSM) eachInstance(fn func(Protocol)) {
	for _, p := range d.instances {
		if p != nil {
			fn(p)
		}
	}
}

// Attr carries per-allocation attributes, mirroring dsm_attr_t.
type Attr struct {
	// Protocol manages the allocated area; -1 selects the default.
	Protocol ProtoID
	// Home fixes the area's home/initial-owner node; -1 means the
	// allocating node.
	Home int
}

// DefaultAttr returns an Attr selecting the default protocol and the
// allocating node as home.
func DefaultAttr() *Attr { return &Attr{Protocol: -1, Home: -1} }

// Malloc allocates size bytes of shared memory on node (dsm_malloc). The
// area is page aligned; its pages are owned by (and homed on) attr.Home, or
// the allocating node. Different areas may use different protocols within
// the same application.
func (d *DSM) Malloc(node, size int, attr *Attr) (Addr, error) {
	if attr == nil {
		attr = DefaultAttr()
	}
	proto := attr.Protocol
	if proto < 0 {
		proto = d.defProto
	}
	if proto < 0 {
		return 0, fmt.Errorf("core: no protocol specified and no default set")
	}
	d.instance(proto) // validate & instantiate
	home := attr.Home
	if home < 0 {
		home = node
	}
	if home >= d.rt.Nodes() {
		return 0, fmt.Errorf("core: home node %d out of range", home)
	}
	r, err := d.alloc.Alloc(node, size)
	if err != nil {
		return 0, err
	}
	first := pageOf(r.Base)
	npages := r.Size / PageSize
	for i := 0; i < npages; i++ {
		pg := first + Page(i)
		d.dir[pg] = pageInfo{home: home, proto: proto}
		// The home node starts with the only, writable copy.
		d.state[home].space.SetAccess(pg, memory.ReadWrite)
		d.Entry(home, pg).Owner = true
		if init, ok := d.instance(proto).(PageInitializer); ok {
			init.InitPage(pg, home)
		}
		if d.prof != nil {
			d.prof.track(pg)
		}
	}
	st := &d.stats
	st.Allocs++
	st.AllocBytes += int64(r.Size)
	return r.Base, nil
}

// MustMalloc is Malloc panicking on error, for setup code.
func (d *DSM) MustMalloc(node, size int, attr *Attr) Addr {
	a, err := d.Malloc(node, size, attr)
	if err != nil {
		panic(err)
	}
	return a
}

// PageInfo reports the home node and protocol of a page, as recorded at
// allocation time.
func (d *DSM) PageInfo(pg Page) (home int, proto ProtoID, ok bool) {
	pi, ok := d.dir[pg]
	return pi.home, pi.proto, ok
}

// sortedPages returns every allocated page in ascending order: the
// deterministic iteration order of recovery sweeps, snapshots and profiler
// tracking.
func (d *DSM) sortedPages() []Page { return slices.Sorted(maps.Keys(d.dir)) }

// protoFor returns the protocol instance managing page pg, from the
// directory. Cold paths only — hot paths with a node in hand use protoAt.
func (d *DSM) protoFor(pg Page) Protocol {
	pi, ok := d.dir[pg]
	if !ok {
		panic(fmt.Sprintf("core: access to unallocated page %d", pg))
	}
	return d.instance(pi.proto)
}

// protoAt returns the protocol managing pg via node's page-table entry,
// which caches the protocol id at creation: the fault/serve/invalidate hot
// paths resolve their protocol from node-local state, not the directory.
func (d *DSM) protoAt(node int, pg Page) Protocol {
	return d.instance(d.Entry(node, pg).proto)
}
