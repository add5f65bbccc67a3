package dsmpm2

import (
	"fmt"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/protocols"
	"dsmpm2/internal/sim"
	"dsmpm2/internal/trace"
)

// Re-exported building blocks, so applications need only this package.
type (
	// Addr is a shared virtual address.
	Addr = core.Addr
	// Page identifies a shared page.
	Page = core.Page
	// ProtoID identifies a registered protocol.
	ProtoID = core.ProtoID
	// Attr carries per-allocation attributes (protocol, home node).
	Attr = core.Attr
	// ObjRef references a shared object.
	ObjRef = core.ObjRef
	// Stats aggregates DSM activity counters.
	Stats = core.Stats
	// FaultTiming decomposes a fault like the paper's Tables 3 and 4.
	FaultTiming = core.FaultTiming
	// Histogram is a fixed-grid per-operation latency histogram with
	// deterministic quantiles (see System.OpHist).
	Histogram = core.Histogram
	// HistSummary is the standard digest of one Histogram: grid-valued
	// quantiles plus exact mean and max.
	HistSummary = core.HistSummary
	// NetworkProfile is a calibrated interconnect cost model.
	NetworkProfile = madeleine.Profile
	// Topology resolves per-(src,dst) link cost profiles; see
	// UniformTopology, HierarchicalTopology and LinkMatrixTopology.
	Topology = madeleine.Topology
	// LinkMatrix is the arbitrary per-pair topology, for asymmetric
	// scenarios; build one with LinkMatrixTopology and SetLink/SetDuplex.
	LinkMatrix = madeleine.LinkMatrix
	// LinkSummary aggregates fault costs per link class.
	LinkSummary = core.LinkSummary
	// PageClass is the sharing pattern the access profiler assigns a page.
	PageClass = core.PageClass
	// EpochProfile is one profiler epoch's classification histogram.
	EpochProfile = core.EpochProfile
	// Time is virtual time.
	Time = sim.Time
	// Duration is virtual duration.
	Duration = sim.Duration
)

// UniformTopology wraps a single profile as a topology: every node pair uses
// the same calibrated cost model, bit-for-bit equivalent to Config.Network.
func UniformTopology(p *NetworkProfile) Topology { return madeleine.NewUniform(p) }

// HierarchicalTopology builds a multi-cluster topology from a node->cluster
// assignment: same-cluster pairs use intra, cross-cluster pairs inter. Use
// EvenClusters for the common equal-block assignment.
func HierarchicalTopology(clusterOf []int, intra, inter *NetworkProfile) Topology {
	return madeleine.NewHierarchical(clusterOf, intra, inter)
}

// LinkMatrixTopology builds an arbitrary per-pair topology whose unset links
// use def.
func LinkMatrixTopology(def *NetworkProfile) *LinkMatrix { return madeleine.NewLinkMatrix(def) }

// EvenClusters assigns nodes to clusters in contiguous blocks as equal as
// possible.
var EvenClusters = madeleine.EvenClusters

// ResolveProfile finds a network profile by canonical name, case-insensitive
// name, or common alias ("TCP/Ethernet", "SCI", ...); nil if unknown.
var ResolveProfile = madeleine.ResolveProfile

// The four cluster networks evaluated in the paper.
var (
	BIPMyrinet      = madeleine.BIPMyrinet
	TCPMyrinet      = madeleine.TCPMyrinet
	TCPFastEthernet = madeleine.TCPFastEthernet
	SISCISCI        = madeleine.SISCISCI
	Networks        = madeleine.Profiles
)

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// PageSize is the shared page size (4 KiB, as in the paper's measurements).
const PageSize = core.PageSize

// Config describes a simulated DSM-PM2 cluster.
type Config struct {
	// Nodes is the number of cluster nodes (default 2).
	Nodes int
	// CPUsPerNode models processors per node (default 1, like the
	// paper's Pentium II nodes).
	CPUsPerNode int
	// Network selects the uniform interconnect cost profile (default
	// BIPMyrinet); it is the single-cluster shorthand for Topology.
	Network *NetworkProfile
	// Topology, when set, overrides Network and resolves costs per
	// (src,dst) link: heterogeneous clusters (HierarchicalTopology) or
	// arbitrary per-pair profiles (LinkMatrixTopology).
	Topology Topology
	// LinkContention enables FIFO bandwidth occupancy per directed link:
	// concurrent transfers on one link queue in virtual time instead of
	// overlapping for free. Off by default, matching the paper's
	// single-message calibration.
	LinkContention bool
	// AdaptiveHomes enables the online sharing-pattern profiler AND its
	// home-migration decision engine: page accesses are counted per
	// (page, node), folded into epochs at cluster-wide barriers, and pages
	// are re-homed onto their dominant writers (`dsmbench -exp adapt`).
	// Off by default — placement then stays exactly as allocated.
	AdaptiveHomes bool
	// Protocol names the default consistency protocol (default
	// "li_hudak"); see ProtocolNames for the list.
	Protocol string
	// Seed drives the deterministic simulation (default 1).
	Seed int64
	// Trace enables post-mortem span recording.
	Trace bool
}

// System is a running DSM-PM2 platform instance: a PM2 machine, a DSM with
// all built-in protocols registered, and (optionally) a trace log.
type System struct {
	rt  *pm2.Runtime
	dsm *core.DSM
	ids protocols.IDs
	tr  *trace.Log

	// cfg is the defaulted configuration the system was built from, retained
	// so a checkpoint can serialize it (see checkpoint.go).
	cfg Config

	// cursor is the fault-plan cursor (nil until InjectFaults); Run re-arms
	// it so fault events parked across the end of a run fire in the next
	// run chunk. The plan is retained for checkpointing.
	cursor    *sim.FaultCursor
	faultPlan *FaultPlan
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if cfg.Nodes == 0 {
		// A topology bound to a node count implies the cluster size.
		if s, ok := cfg.Topology.(madeleine.Sizer); ok {
			cfg.Nodes = s.Nodes()
		} else {
			cfg.Nodes = 2
		}
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("dsmpm2: invalid node count %d", cfg.Nodes)
	}
	if cfg.CPUsPerNode < 0 {
		return nil, fmt.Errorf("dsmpm2: invalid CPUs per node %d", cfg.CPUsPerNode)
	}
	if cfg.Network == nil {
		cfg.Network = BIPMyrinet
	}
	if cfg.Protocol == "" {
		cfg.Protocol = "li_hudak"
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if s, ok := cfg.Topology.(madeleine.Sizer); ok && s.Nodes() != cfg.Nodes {
		return nil, fmt.Errorf("dsmpm2: topology %s is built for %d nodes, config has %d",
			cfg.Topology.Name(), s.Nodes(), cfg.Nodes)
	}
	rt := pm2.NewRuntime(pm2.Config{
		Nodes:          cfg.Nodes,
		CPUsPerNode:    cfg.CPUsPerNode,
		Network:        cfg.Network,
		Topology:       cfg.Topology,
		LinkContention: cfg.LinkContention,
		Seed:           cfg.Seed,
	})
	reg, ids := protocols.NewRegistry()
	d := core.New(rt, reg, core.DefaultCosts())
	s := &System{rt: rt, dsm: d, ids: ids, cfg: cfg}
	if cfg.Trace {
		s.tr = trace.NewLog()
	}
	if err := s.SetDefaultProtocol(cfg.Protocol); err != nil {
		return nil, err
	}
	if cfg.AdaptiveHomes {
		d.EnableProfiler(core.ProfilerConfig{Migrate: true})
	}
	return s, nil
}

// MustNew is New panicking on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// ProtocolNames lists the registered protocol names.
func (s *System) ProtocolNames() []string { return s.dsm.Registry().Names() }

// Protocol resolves a protocol name to its id.
func (s *System) Protocol(name string) (ProtoID, bool) {
	return s.dsm.Registry().Lookup(name)
}

// SetDefaultProtocol selects the protocol used by allocations without an
// explicit attribute (pm2_dsm_set_default_protocol).
func (s *System) SetDefaultProtocol(name string) error {
	id, ok := s.Protocol(name)
	if !ok {
		return fmt.Errorf("dsmpm2: unknown protocol %q (have %v)", name, s.ProtocolNames())
	}
	s.dsm.SetDefaultProtocol(id)
	return nil
}

// CreateProtocol registers a user-defined protocol built from 8 hook
// routines and returns its id (dsm_create_protocol).
func (s *System) CreateProtocol(h *core.Hooks) ProtoID { return s.dsm.CreateProtocol(h) }

// Malloc allocates shared memory on node (dsm_malloc). attr selects the
// managing protocol and home; nil uses the defaults.
func (s *System) Malloc(node, size int, attr *Attr) (Addr, error) {
	return s.dsm.Malloc(node, size, attr)
}

// MustMalloc is Malloc panicking on error.
func (s *System) MustMalloc(node, size int, attr *Attr) Addr {
	return s.dsm.MustMalloc(node, size, attr)
}

// NewObject allocates a shared object of nFields 8-byte fields homed on
// node, managed by protocol proto (-1 = default).
func (s *System) NewObject(node, nFields int, proto ProtoID) (ObjRef, error) {
	return s.dsm.NewObject(node, nFields, proto)
}

// MustNewObject is NewObject panicking on error.
func (s *System) MustNewObject(node, nFields int, proto ProtoID) ObjRef {
	return s.dsm.MustNewObject(node, nFields, proto)
}

// NewLock creates a cluster-wide lock managed by node home.
func (s *System) NewLock(home int) int { return s.dsm.NewLock(home) }

// NewBarrier creates a cluster-wide barrier for n participants.
func (s *System) NewBarrier(n int) int { return s.dsm.NewBarrier(n) }

// NewCond creates a cluster-wide condition variable tied to a DSM lock.
func (s *System) NewCond(lock int) int { return s.dsm.NewCond(lock) }

// BindLock associates a shared area with a lock for entry-consistency
// protocols (entry_mw): the area is kept consistent only across
// acquire/release of that lock.
func (s *System) BindLock(lock int, base Addr, size int) { s.dsm.BindLock(lock, base, size) }

// Spawn starts fn in a new application thread on node.
func (s *System) Spawn(node int, name string, fn func(t *Thread)) *Thread {
	var wrapped *Thread
	th := s.rt.CreateThread(node, name, func(inner *pm2.Thread) {
		fn(wrapped)
	})
	wrapped = &Thread{sys: s, th: th}
	return wrapped
}

// SpawnStack is Spawn with an explicit stack size (drives migration cost).
func (s *System) SpawnStack(node int, name string, stack int, fn func(t *Thread)) *Thread {
	var wrapped *Thread
	th := s.rt.CreateThreadStack(node, name, stack, func(inner *pm2.Thread) {
		fn(wrapped)
	})
	wrapped = &Thread{sys: s, th: th}
	return wrapped
}

// Run drives the simulation until all application threads finish. It
// returns an error if the system deadlocks. An injected fault plan is
// re-armed first, so fault events that parked across the end of the last
// run fire in this run chunk.
func (s *System) Run() error {
	if s.cursor != nil {
		s.cursor.Arm()
	}
	return s.rt.Run()
}

// Now returns the current virtual time.
func (s *System) Now() Time { return s.rt.Now() }

// Stats returns the DSM activity counters.
func (s *System) Stats() Stats { return s.dsm.Stats() }

// Timings exposes the recorded fault timings (Tables 3/4 style records).
func (s *System) Timings() *core.TimingLog { return s.dsm.Timings() }

// OpHist returns the per-operation latency histogram registered under kind
// ("get", "put", ...), creating it on first use. Applications record each
// operation's virtual-time latency on the completion path; the histogram's
// fixed log-spaced buckets make p50/p95/p99 deterministic, snapshot-safe and
// bit-identical across replays of one seed.
func (s *System) OpHist(kind string) *Histogram { return s.dsm.OpHist(kind) }

// OpKinds lists the registered operation-histogram kinds in sorted order.
func (s *System) OpKinds() []string { return s.dsm.OpKinds() }

// ProfileEpochs returns the profiler's per-epoch classification histograms
// (nil when the profiler is off).
func (s *System) ProfileEpochs() []EpochProfile { return s.dsm.ProfileEpochs() }

// Trace returns the post-mortem span log (nil unless Config.Trace was set).
func (s *System) Trace() *trace.Log { return s.tr }

// Nodes reports the cluster size.
func (s *System) Nodes() int { return s.rt.Nodes() }

// Network returns the uniform interconnect profile in use, or nil when the
// system runs over a heterogeneous topology (use Topology or Link instead).
func (s *System) Network() *NetworkProfile { return s.rt.Profile() }

// Topology returns the interconnect topology in use.
func (s *System) Topology() Topology { return s.rt.Topology() }

// Link returns the cost profile governing messages from src to dst.
func (s *System) Link(src, dst int) *NetworkProfile { return s.rt.Link(src, dst) }

// DSM exposes the underlying core instance for advanced use (tests, tools).
func (s *System) DSM() *core.DSM { return s.dsm }

// Runtime exposes the underlying PM2 machine for advanced use.
func (s *System) Runtime() *pm2.Runtime { return s.rt }
