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
	// Histogram is a fixed-grid latency histogram with deterministic
	// quantiles; applications record their operations' latencies in it.
	Histogram = core.Histogram
	// HistSummary is the standard digest of one Histogram: grid-valued
	// quantiles plus exact mean and max.
	HistSummary = core.HistSummary
	// NetworkProfile is a calibrated interconnect cost model.
	NetworkProfile = madeleine.Profile
	// Topology resolves per-(src,dst) link cost profiles: a NetworkProfile
	// is the uniform topology; see also HierarchicalTopology and
	// LinkMatrixTopology.
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
	// Nodes is the number of cluster nodes (default 2), each with one CPU
	// like the paper's Pentium II nodes.
	Nodes int
	// Network resolves the interconnect cost of every (src,dst) link: one
	// NetworkProfile for a uniform cluster (default BIPMyrinet),
	// heterogeneous clusters (HierarchicalTopology) or arbitrary per-pair
	// profiles (LinkMatrixTopology).
	Network Topology
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
	// it so a fault event parked at the end of a run fires in the next run.
	// The plan is retained for checkpointing.
	cursor    *sim.FaultCursor
	faultPlan *FaultPlan
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	hier, _ := cfg.Network.(*madeleine.Hierarchical)
	if cfg.Nodes == 0 {
		// A hierarchical topology implies the cluster size.
		if hier != nil {
			cfg.Nodes = hier.Nodes()
		} else {
			cfg.Nodes = 2
		}
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("dsmpm2: invalid node count %d", cfg.Nodes)
	}
	if p, ok := cfg.Network.(*NetworkProfile); ok && p == nil {
		return nil, fmt.Errorf("dsmpm2: Config.Network holds a nil profile")
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
	if hier != nil && hier.Nodes() != cfg.Nodes {
		return nil, fmt.Errorf("dsmpm2: topology %s is built for %d nodes, config has %d",
			hier, hier.Nodes(), cfg.Nodes)
	}
	rt := pm2.NewRuntime(pm2.Config{
		Nodes:          cfg.Nodes,
		Network:        cfg.Network,
		LinkContention: cfg.LinkContention,
		Seed:           cfg.Seed,
	})
	reg, ids := protocols.NewRegistry()
	d := core.New(rt, reg)
	s := &System{rt: rt, dsm: d, ids: ids, cfg: cfg}
	if cfg.Trace {
		s.tr = trace.NewLog()
	}
	if err := s.SetDefaultProtocol(cfg.Protocol); err != nil {
		return nil, err
	}
	if cfg.AdaptiveHomes {
		d.EnableProfiler()
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

// Run drives the simulation until all application threads finish or a
// thread calls Pause; the next Run continues a paused run. It returns an
// error if the system deadlocks. An injected fault plan is re-armed first,
// so a fault event that parked when the last run finished fires in this one.
func (s *System) Run() error {
	if s.cursor != nil {
		s.cursor.Arm()
	}
	return s.rt.Run()
}

// Pause ends the current Run once the calling thread next yields, with every
// other thread and queued event left where it is: the next Run continues the
// run exactly as if it had not stopped.
func (s *System) Pause() { s.rt.Engine().Stop() }

// Now returns the current virtual time.
func (s *System) Now() Time { return s.rt.Now() }

// Stats returns the DSM activity counters.
func (s *System) Stats() Stats { return s.dsm.Stats() }

// Timings exposes the recorded fault timings (Tables 3/4 style records).
func (s *System) Timings() *core.TimingLog { return s.dsm.Timings() }

// ProfileEpochs returns the profiler's per-epoch classification histograms
// (nil when the profiler is off).
func (s *System) ProfileEpochs() []EpochProfile { return s.dsm.ProfileEpochs() }

// Trace returns the post-mortem span log (nil unless Config.Trace was set).
func (s *System) Trace() *trace.Log { return s.tr }

// Nodes reports the cluster size.
func (s *System) Nodes() int { return s.rt.Nodes() }

// DSM exposes the underlying core instance for advanced use (tests, tools).
func (s *System) DSM() *core.DSM { return s.dsm }

// Runtime exposes the underlying PM2 machine for advanced use.
func (s *System) Runtime() *pm2.Runtime { return s.rt }
