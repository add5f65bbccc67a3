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
	"sync"
	"sync/atomic"

	"dsmpm2/internal/isomalloc"
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

// DefaultCosts returns the paper-calibrated cost set.
func DefaultCosts() Costs {
	return Costs{
		Fault:       11 * sim.Microsecond,
		Server:      13 * sim.Microsecond,
		Install:     13 * sim.Microsecond,
		MigOverhead: 1 * sim.Microsecond,
		Check:       300 * sim.Nanosecond,
		DiffGap:     8,
	}
}

// nodeState is the per-node half of the DSM: this node's view of the shared
// address space and its slice of the distributed page table. pages mirrors
// the table's keys in sorted order, maintained incrementally at entry
// creation so release-time sweeps never rebuild and re-sort it.
type nodeState struct {
	node  int
	space *memory.Space
	table map[Page]*Entry
	pages []Page

	// notices are the write notices this node queued during the current
	// synchronization epoch, keyed by the barrier they were queued for;
	// that barrier's arrival piggybacks them (see outbox.go). Keying by
	// barrier keeps a concurrent thread's arrival at a different barrier
	// from walking off with them.
	notices map[int][]WriteNotice

	// treebar holds this node's combining-tree barrier accumulators, keyed
	// by barrier id — populated only on cluster-leader nodes of a sharded
	// machine (see treebar.go).
	treebar map[int]*treeBarLocal
}

// DSM is a DSM-PM2 instance spanning all nodes of a PM2 machine.
type DSM struct {
	rt    *pm2.Runtime
	alloc *isomalloc.Allocator
	costs Costs

	// bufsSh recycles page-sized buffers — wire copies of page transfers
	// and the twins of multiple-writer protocols — one pool per event-loop
	// shard, accessed through buf(node) so concurrent shards never share a
	// free list. Buffers drift between pools (a page fetched on one shard
	// is recycled on the receiver's), which is harmless: pools are
	// interchangeable and each stays internally consistent.
	bufsSh []*memory.BufPool
	// recsSh recycles the core's records the same way (see records.go).
	recsSh []recPools

	state []*nodeState

	registry *Registry
	// instances is a copy-on-write ProtoID → Protocol map: protoFor runs on
	// every fault and message service, from every shard's context, while
	// instantiation is rare (first use of a protocol). Readers load the
	// published map lock-free; instMu serializes the writers.
	instances atomic.Pointer[map[ProtoID]Protocol]
	instMu    sync.Mutex
	defProto  ProtoID

	// dir is the range-sharded page directory (see directory.go): the
	// allocation-time home/protocol metadata, partitioned by isomalloc
	// slice owner.
	dir *directory

	locks    []*lockState
	barriers []*barrierState
	conds    []*condState

	// tree is the combining-tree barrier topology, built when the runtime
	// is sharded (nil otherwise): cluster-wide barriers then aggregate
	// arrivals per cluster leader instead of funneling every arrival to
	// node 0. See treebar.go.
	tree *barTree

	objects *objectSpace

	// recovery is the fault-recovery manager: nil (and completely inert)
	// until EnableRecovery is called. See recovery.go.
	recovery *recoveryState

	// prof is the sharing-pattern profiler and home-migration decision
	// engine: nil (and completely inert) until EnableProfiler is called.
	// See profiler.go and migrate.go.
	prof *profilerState

	// batch selects the communication path: true (the default) coalesces
	// the operations accumulated in a Batch into one multi-part envelope
	// per destination and lets barriers piggyback write notices; false
	// keeps the historical one-envelope-per-operation wire pattern, for A/B
	// comparison (see outbox.go).
	batch bool

	// statsSh and timingsSh hold one counter block / timing ring per
	// event-loop shard: every increment happens from some node's context
	// and lands in that node's shard's block, so no two host cores ever
	// contend on (or race over) a counter. Stats() and Timings() fold them
	// in shard order — a deterministic merge, since each shard's content is
	// deterministic. With Shards=1 there is exactly one block and the fold
	// is the identity.
	statsSh    []Stats
	timingsSh  []TimingLog
	nodeFaults []int64

	// opHists holds the per-operation latency histograms (see histogram.go),
	// keyed by op kind, created lazily by OpHist; histMu guards the map
	// (threads on different shards may register kinds concurrently — the
	// histograms themselves are internally atomic).
	histMu  sync.Mutex
	opHists map[string]*Histogram

	// tunedPagePrior records that an offline what-if sweep concluded the
	// page policy (under the recommended placement) beats thread migration
	// for this workload. Set before Run; the adaptive protocol's
	// no-evidence fallback consults it (see protocols/adaptive.go).
	tunedPagePrior bool
}

// pageInfo is the allocation-time metadata for a shared page, known on every
// node (the real system distributes it when dsm_malloc updates the global
// table).
type pageInfo struct {
	home  int
	proto ProtoID
}

// New creates a DSM instance over the given PM2 machine, with the given
// protocol registry. Registered protocols are instantiated per DSM.
func New(rt *pm2.Runtime, reg *Registry, costs Costs) *DSM {
	d := &DSM{
		rt:       rt,
		alloc:    isomalloc.New(rt.Nodes(), PageSize),
		costs:    costs,
		registry: reg,
		defProto: -1,
		batch:    true,
	}
	d.dir = newDirectory(d.alloc, rt.Nodes())
	shards := rt.Shards()
	d.statsSh = make([]Stats, shards)
	d.timingsSh = make([]TimingLog, shards)
	d.bufsSh = make([]*memory.BufPool, shards)
	d.recsSh = make([]recPools, shards)
	for i := range d.bufsSh {
		d.bufsSh[i] = memory.NewBufPool(PageSize)
	}
	d.nodeFaults = make([]int64, rt.Nodes())
	for i := 0; i < rt.Nodes(); i++ {
		d.state = append(d.state, &nodeState{
			node:  i,
			space: memory.NewSpace(PageSize),
			table: make(map[Page]*Entry),
		})
	}
	if rt.Shards() > 1 {
		d.tree = newBarTree(rt)
	}
	d.objects = newObjectSpace(d)
	d.registerServices()
	return d
}

// Runtime returns the underlying PM2 machine.
func (d *DSM) Runtime() *pm2.Runtime { return d.rt }

// SetBatching selects the communication path: on (the default) coalesces
// release-time operations into one multi-part envelope per destination and
// piggybacks write notices on barriers; off restores the historical
// one-envelope-per-operation pattern. Flip it before Run, not mid-workload:
// notices queued under batching would otherwise strand.
func (d *DSM) SetBatching(on bool) { d.batch = on }

// BatchingEnabled reports whether the batched communication path is active.
func (d *DSM) BatchingEnabled() bool { return d.batch }

// Costs returns the core cost configuration.
func (d *DSM) Costs() Costs { return d.costs }

// Space returns node's view of the shared address space. Protocol code uses
// it to install pages and set access rights.
func (d *DSM) Space(node int) *memory.Space { return d.state[node].space }

// SetDefaultProtocol makes id the protocol for subsequent allocations that
// carry no explicit attribute (pm2_dsm_set_default_protocol).
func (d *DSM) SetDefaultProtocol(id ProtoID) {
	d.instance(id) // force instantiation; panics on unknown id
	d.defProto = id
}

// DefaultProtocol returns the current default protocol id (-1 if unset).
func (d *DSM) DefaultProtocol() ProtoID { return d.defProto }

// instance returns (instantiating on first use) the protocol instance for id.
func (d *DSM) instance(id ProtoID) Protocol {
	if m := d.instances.Load(); m != nil {
		if p, ok := (*m)[id]; ok {
			return p
		}
	}
	d.instMu.Lock()
	defer d.instMu.Unlock()
	old := d.instances.Load()
	if old != nil {
		if p, ok := (*old)[id]; ok {
			return p
		}
	}
	p := d.registry.newInstance(id, d)
	next := make(map[ProtoID]Protocol, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[id] = p
	d.instances.Store(&next)
	return p
}

// instanceIfLive returns the already-instantiated protocol for id, if any.
func (d *DSM) instanceIfLive(id ProtoID) (Protocol, bool) {
	if m := d.instances.Load(); m != nil {
		p, ok := (*m)[id]
		return p, ok
	}
	return nil, false
}

// eachInstance invokes fn on every instantiated protocol, in id order.
func (d *DSM) eachInstance(fn func(Protocol)) {
	for id := ProtoID(0); int(id) < d.registry.Len(); id++ {
		if p, ok := d.instanceIfLive(id); ok {
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
		d.dir.set(pg, pageInfo{home: home, proto: proto})
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
	st := d.st(node)
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

// Free releases a shared area. The caller must ensure no thread accesses it
// afterwards (as with any free).
func (d *DSM) Free(base Addr) error { return d.alloc.Free(base) }

// PageInfo reports the home node and protocol of a page, as recorded at
// allocation time.
func (d *DSM) PageInfo(pg Page) (home int, proto ProtoID, ok bool) {
	pi, ok := d.dir.get(pg)
	return pi.home, pi.proto, ok
}

// protoFor returns the protocol instance managing page pg, from the
// directory. Cold paths only — hot paths with a node in hand use protoAt.
func (d *DSM) protoFor(pg Page) Protocol {
	pi, ok := d.dir.get(pg)
	if !ok {
		panic(fmt.Sprintf("core: access to unallocated page %d", pg))
	}
	return d.instance(pi.proto)
}

// protoAt returns the protocol managing pg via node's page-table entry,
// which caches the protocol id at creation: the fault/serve/invalidate hot
// paths resolve their protocol from node-local state, never touching a
// directory partition (let alone one owned by another shard's range).
func (d *DSM) protoAt(node int, pg Page) Protocol {
	return d.instance(d.Entry(node, pg).proto)
}
