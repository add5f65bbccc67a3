package core

import (
	"fmt"
	"sort"

	"dsmpm2/internal/isomalloc"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/sim"
)

// DSM checkpoint/restore: the core's half of the full-state snapshot
// subsystem (see the dsmpm2 facade's checkpoint.go for the envelope that
// ties the layers together). CaptureState serializes everything the DSM
// owns — frames, page-table entries, allocation metadata, synchronization
// managers, protocol-private state, stats, recovery and profiler state —
// at a safe point, and RestoreState installs it into a freshly built DSM of
// the same shape so the continued run replays bit-identically.
//
// A safe point for the core means flush-quiesced: no fetch pending, no twin
// outstanding, no lock held, no barrier generation in progress. Queued write
// notices are NOT required to be empty — a checkpoint can land between a
// flush and the barrier arrival that would carry its notices, so they
// serialize with the node that queued them.

// ProtoStater is the optional interface a protocol implements to make its
// private per-node state (dirty-page sets, write-fault counters) part of a
// checkpoint. Protocols without cross-synchronization private state need
// not implement it; a checkpoint fails if a stateful protocol is
// instantiated but not capturable.
type ProtoStater interface {
	// CaptureProtoState serializes the protocol's private state.
	CaptureProtoState() ([]byte, error)
	// RestoreProtoState installs previously captured state, replacing the
	// instance's current (freshly constructed) state.
	RestoreProtoState(data []byte) error
}

// FrameState is one node's copy of one page: contents and access rights.
type FrameState struct {
	Page   uint64 `json:"page"`
	Access uint8  `json:"access"`
	Data   []byte `json:"data"`
}

// EntryState is the serializable part of one page-table entry. Pending,
// pendingSeq and ProtoData are deliberately absent: a safe point has no
// fetch in flight and no twin outstanding (an empty twinData shell restores
// as nil, which is behaviorally identical).
type EntryState struct {
	Page      uint64 `json:"page"`
	ProbOwner int    `json:"prob_owner"`
	Home      int    `json:"home"`
	Owner     bool   `json:"owner,omitempty"`
	Copyset   []int  `json:"copyset,omitempty"`
	InvalSeq  uint64 `json:"inval_seq,omitempty"`
	ReqSeq    uint64 `json:"req_seq,omitempty"`
}

// NoticeGroup is one barrier's queued write notices on one node.
type NoticeGroup struct {
	Barrier int           `json:"barrier"`
	Notices []WriteNotice `json:"notices"`
}

// NodeCoreState is one node's slice of the DSM state.
type NodeCoreState struct {
	Frames  []FrameState  `json:"frames,omitempty"`
	Entries []EntryState  `json:"entries,omitempty"`
	Notices []NoticeGroup `json:"notices,omitempty"`
}

// PageAllocState is the allocation-time metadata of one shared page.
type PageAllocState struct {
	Page  uint64 `json:"page"`
	Home  int    `json:"home"`
	Proto string `json:"proto"`
}

// LockSnap is the manager-side state of one DSM lock. Held/waiters are
// absent: a checkpoint with a lock held is rejected.
type LockSnap struct {
	ID    int      `json:"id"`
	Home  int      `json:"home"`
	Bound []uint64 `json:"bound,omitempty"`
}

// BarrierSnap is the manager-side state of one DSM barrier. Notices that
// stale re-arrivals folded into a not-yet-started generation are carried.
type BarrierSnap struct {
	ID      int           `json:"id"`
	Home    int           `json:"home"`
	N       int           `json:"n"`
	Gen     int           `json:"gen"`
	Notices []WriteNotice `json:"notices,omitempty"`
	Arrived []int         `json:"arrived_nodes,omitempty"`
}

// CondSnap is the manager-side state of one condition variable (no
// outstanding tickets at a safe point).
type CondSnap struct {
	ID      int `json:"id"`
	Lock    int `json:"lock"`
	Home    int `json:"home"`
	NextTkt int `json:"next_tkt"`
}

// ObjAreaSnap is one object-space bump area.
type ObjAreaSnap struct {
	Home  int    `json:"home"`
	Proto string `json:"proto"`
	Cur   uint64 `json:"cur"`
	End   uint64 `json:"end"`
}

// ProtoStateSnap is one instantiated protocol: its name and (for stateful
// protocols) its captured private state.
type ProtoStateSnap struct {
	Name  string `json:"name"`
	State []byte `json:"state,omitempty"`
}

// RecoverySnap is the recovery manager's state.
type RecoverySnap struct {
	Timeout     sim.Duration  `json:"timeout"`
	Backoff     float64       `json:"backoff,omitempty"`
	RetryMax    sim.Duration  `json:"retry_max,omitempty"`
	Jitter      sim.Duration  `json:"jitter,omitempty"`
	JitterSeed  int64         `json:"jitter_seed,omitempty"`
	JitterDraws uint64        `json:"jitter_draws,omitempty"`
	Dead        []bool        `json:"dead"`
	Stats       RecoveryStats `json:"stats"`
	Ckpts       []int         `json:"ckpts"`
}

// ProfCounters mirrors pageCounters for serialization.
type ProfCounters struct {
	Reads   uint32 `json:"reads,omitempty"`
	Writes  uint32 `json:"writes,omitempty"`
	Fetches uint32 `json:"fetches,omitempty"`
	Diffs   uint32 `json:"diffs,omitempty"`
}

// ProfRingEntry mirrors ringEntry for serialization.
type ProfRingEntry struct {
	Class  uint8 `json:"class"`
	Writer int   `json:"writer"`
}

// ProfPageSnap is the profiler's per-page state.
type ProfPageSnap struct {
	Page   uint64          `json:"page"`
	Counts []ProfCounters  `json:"counts"`
	Ring   []ProfRingEntry `json:"ring"`
	Pref   int             `json:"pref"`
	Stable int             `json:"stable"`
}

// ProfilerSnap is the profiler and decision-engine state.
type ProfilerSnap struct {
	Migrate   bool           `json:"migrate"`
	Stability int            `json:"stability"`
	Window    int            `json:"window"`
	Epoch     int            `json:"epoch"`
	Epochs    []EpochProfile `json:"epochs,omitempty"`
	Pages     []ProfPageSnap `json:"pages,omitempty"`
}

// CoreState is the DSM's complete serializable state.
type CoreState struct {
	DefProto   string           `json:"def_proto,omitempty"`
	Protocols  []ProtoStateSnap `json:"protocols,omitempty"`
	Alloc      isomalloc.State  `json:"alloc"`
	Pages      []PageAllocState `json:"pages,omitempty"`
	Nodes      []NodeCoreState  `json:"nodes"`
	Locks      []LockSnap       `json:"locks,omitempty"`
	Barriers   []BarrierSnap    `json:"barriers,omitempty"`
	Conds      []CondSnap       `json:"conds,omitempty"`
	ObjAreas   []ObjAreaSnap    `json:"obj_areas,omitempty"`
	Stats      Stats            `json:"stats"`
	NodeFaults []int64          `json:"node_faults"`
	Timings    []FaultTiming    `json:"timings,omitempty"`
	OpHists    []HistogramState `json:"op_hists,omitempty"`
	Recovery   *RecoverySnap    `json:"recovery,omitempty"`
	Profiler   *ProfilerSnap    `json:"profiler,omitempty"`
}

// CaptureState serializes the DSM at a safe point, or explains why the
// moment is not one. It never mutates the DSM.
func (d *DSM) CaptureState() (*CoreState, error) {
	if d.prof != nil && d.prof.folding {
		return nil, fmt.Errorf("core: capture during a profiler epoch fold")
	}
	s := &CoreState{
		Alloc:      d.alloc.Capture(),
		Stats:      d.Stats(),
		NodeFaults: append([]int64(nil), d.nodeFaults...),
	}
	if d.defProto >= 0 {
		s.DefProto = d.registry.Name(d.defProto)
	}
	for id := ProtoID(0); int(id) < d.registry.Len(); id++ {
		p, ok := d.instances[id]
		if !ok {
			continue
		}
		ps := ProtoStateSnap{Name: d.registry.Name(id)}
		if st, ok := p.(ProtoStater); ok {
			blob, err := st.CaptureProtoState()
			if err != nil {
				return nil, fmt.Errorf("core: capture protocol %s: %w", ps.Name, err)
			}
			ps.State = blob
		}
		s.Protocols = append(s.Protocols, ps)
	}
	for _, pg := range d.sortedPages() {
		pi := d.dir[pg]
		s.Pages = append(s.Pages, PageAllocState{
			Page: uint64(pg), Home: pi.home, Proto: d.registry.Name(pi.proto),
		})
	}
	for n := 0; n < d.rt.Nodes(); n++ {
		ncs, err := d.captureNode(n)
		if err != nil {
			return nil, err
		}
		s.Nodes = append(s.Nodes, ncs)
	}
	for _, ls := range d.locks {
		if ls.held || len(ls.waiters) > 0 {
			return nil, fmt.Errorf("core: capture with lock %d held by node %d (%d waiter(s)) — checkpoint outside critical sections", ls.id, ls.holder, len(ls.waiters))
		}
		snap := LockSnap{ID: ls.id, Home: ls.home}
		for _, pg := range ls.bound {
			snap.Bound = append(snap.Bound, uint64(pg))
		}
		s.Locks = append(s.Locks, snap)
	}
	for _, bs := range d.barriers {
		if bs.arrived != 0 || len(bs.waiters) > 0 {
			return nil, fmt.Errorf("core: capture with barrier %d mid-generation (%d arrived, %d parked)", bs.id, bs.arrived, len(bs.waiters))
		}
		snap := BarrierSnap{ID: bs.id, Home: bs.home, N: bs.n, Gen: bs.gen,
			Notices: append([]WriteNotice(nil), bs.notices...)}
		for n := range bs.arrivedNodes {
			snap.Arrived = append(snap.Arrived, n)
		}
		sort.Ints(snap.Arrived)
		s.Barriers = append(s.Barriers, snap)
	}
	for _, cs := range d.conds {
		if len(cs.tickets) > 0 {
			return nil, fmt.Errorf("core: capture with %d outstanding wait ticket(s) on condition %d", len(cs.tickets), cs.id)
		}
		s.Conds = append(s.Conds, CondSnap{ID: cs.id, Lock: cs.lock, Home: cs.home, NextTkt: cs.nextTkt})
	}
	// Areas in deterministic (home, proto) order.
	areaKeys := make([]areaKey, 0, len(d.objects.areas))
	for k := range d.objects.areas {
		areaKeys = append(areaKeys, k)
	}
	sort.Slice(areaKeys, func(i, j int) bool {
		if areaKeys[i].home != areaKeys[j].home {
			return areaKeys[i].home < areaKeys[j].home
		}
		return areaKeys[i].proto < areaKeys[j].proto
	})
	for _, k := range areaKeys {
		a := d.objects.areas[k]
		s.ObjAreas = append(s.ObjAreas, ObjAreaSnap{
			Home: k.home, Proto: d.registry.Name(k.proto),
			Cur: uint64(a.cur), End: uint64(a.end),
		})
	}
	for _, ft := range d.Timings().All() {
		s.Timings = append(s.Timings, *ft)
	}
	for _, kind := range d.OpKinds() {
		s.OpHists = append(s.OpHists, d.opHists[kind].capture(kind))
	}
	if rec := d.recovery; rec != nil {
		rs := &RecoverySnap{
			Timeout: rec.cfg.Timeout, Backoff: rec.cfg.Backoff,
			RetryMax: rec.cfg.RetryMax, Jitter: rec.cfg.Jitter,
			JitterSeed: rec.cfg.JitterSeed,
			Dead:       append([]bool(nil), rec.dead...),
			Stats:      rec.stats,
			Ckpts:      append([]int(nil), rec.ckpts...),
		}
		if rec.jitter != nil {
			rs.JitterDraws = rec.jitter.Draws()
		}
		s.Recovery = rs
	}
	if p := d.prof; p != nil {
		ps := &ProfilerSnap{
			Migrate: p.cfg.Migrate, Stability: p.cfg.Stability, Window: p.cfg.Window,
			Epoch:  p.epoch,
			Epochs: append([]EpochProfile(nil), p.epochs...),
		}
		for _, pg := range p.order {
			pp := p.pages[pg]
			snap := ProfPageSnap{Page: uint64(pg), Pref: pp.pref, Stable: pp.stable}
			for _, c := range pp.counts {
				snap.Counts = append(snap.Counts, ProfCounters{Reads: c.reads, Writes: c.writes, Fetches: c.fetches, Diffs: c.diffs})
			}
			for _, r := range pp.ring {
				snap.Ring = append(snap.Ring, ProfRingEntry{Class: uint8(r.class), Writer: r.writer})
			}
			ps.Pages = append(ps.Pages, snap)
		}
		s.Profiler = ps
	}
	return s, nil
}

// captureNode serializes one node's frames, entries and queued notices.
func (d *DSM) captureNode(n int) (NodeCoreState, error) {
	ns := d.state[n]
	var out NodeCoreState
	if d.recovery != nil && d.recovery.dead[n] {
		// A fail-stopped node's retained state — including half-written
		// twins its dying threads left behind — is unreachable garbage:
		// RestartNode drops it wholesale and nothing reads it in between.
		// Capture it as the empty state restart would install.
		return out, nil
	}
	for _, pg := range ns.space.Pages() { // ascending
		fr := ns.space.Frame(pg)
		out.Frames = append(out.Frames, FrameState{
			Page: uint64(pg), Access: uint8(fr.Access),
			Data: append([]byte(nil), fr.Data...),
		})
	}
	for _, pg := range ns.pages {
		e := ns.table[pg]
		if e.Pending {
			return NodeCoreState{}, fmt.Errorf("core: capture with a fetch in flight for page %d on node %d", pg, n)
		}
		if td, ok := e.ProtoData.(*twinData); ok && td != nil && (td.twin != nil || td.dirty != nil) {
			return NodeCoreState{}, fmt.Errorf("core: capture with an outstanding twin/recorded diff for page %d on node %d (flush before checkpointing)", pg, n)
		} else if e.ProtoData != nil && !ok {
			return NodeCoreState{}, fmt.Errorf("core: capture with unserializable protocol data on page %d node %d", pg, n)
		}
		out.Entries = append(out.Entries, EntryState{
			Page: uint64(pg), ProbOwner: e.ProbOwner, Home: e.Home, Owner: e.Owner,
			Copyset:  e.Copyset.AppendTo(nil),
			InvalSeq: e.InvalSeq, ReqSeq: e.reqSeq,
		})
	}
	barriers := make([]int, 0, len(ns.notices))
	for b := range ns.notices {
		barriers = append(barriers, b)
	}
	sort.Ints(barriers)
	for _, b := range barriers {
		if len(ns.notices[b]) == 0 {
			continue
		}
		out.Notices = append(out.Notices, NoticeGroup{
			Barrier: b, Notices: append([]WriteNotice(nil), ns.notices[b]...),
		})
	}
	return out, nil
}

// lookupProto resolves a captured protocol name against the registry.
func (d *DSM) lookupProto(name string) (ProtoID, error) {
	id, ok := d.registry.Lookup(name)
	if !ok {
		return -1, fmt.Errorf("core: restore references unregistered protocol %q", name)
	}
	return id, nil
}

// checkFrameState validates one captured frame against the restored
// directory and the fixed page geometry.
func (d *DSM) checkFrameState(node int, fs FrameState) error {
	if _, ok := d.dir[Page(fs.Page)]; !ok {
		return fmt.Errorf("core: restore has a frame on node %d for unallocated page %d", node, fs.Page)
	}
	if len(fs.Data) != PageSize {
		return fmt.Errorf("core: restore has a %d-byte frame for page %d on node %d, want %d", len(fs.Data), fs.Page, node, PageSize)
	}
	if fs.Access > uint8(memory.ReadWrite) {
		return fmt.Errorf("core: restore has access value %d on page %d node %d, want at most %d", fs.Access, fs.Page, node, memory.ReadWrite)
	}
	return nil
}

// RestoreState installs a captured core state into this DSM, which must be
// freshly built over an identically shaped runtime (same node count, same
// protocol registry) and must not have served any application traffic yet.
// The recovery manager's OnRestart hook is taken from the DSM's current
// configuration (hooks do not serialize); everything else comes from the
// snapshot.
func (d *DSM) RestoreState(s *CoreState) error {
	if len(s.Nodes) != d.rt.Nodes() {
		return fmt.Errorf("core: restore of %d-node state into %d-node DSM", len(s.Nodes), d.rt.Nodes())
	}
	if err := d.alloc.Restore(s.Alloc); err != nil {
		return err
	}
	clear(d.dir)
	for _, pa := range s.Pages {
		id, err := d.lookupProto(pa.Proto)
		if err != nil {
			return err
		}
		if slice := pa.Page / (isomalloc.SliceBytes / PageSize); slice < 1 || slice > uint64(d.rt.Nodes()) {
			return fmt.Errorf("core: restore lists page %d, which lies outside every node's iso-address slice", pa.Page)
		}
		if pa.Home < 0 || pa.Home >= d.rt.Nodes() {
			return fmt.Errorf("core: restore homes page %d on node %d of %d", pa.Page, pa.Home, d.rt.Nodes())
		}
		d.dir[Page(pa.Page)] = pageInfo{home: pa.Home, proto: id}
	}
	// A frame's page number sizes the Space's page table and an entry's is
	// looked up in the directory, so a hostile checkpoint is refused here,
	// before either is touched.
	for n, ncs := range s.Nodes {
		for _, fs := range ncs.Frames {
			if err := d.checkFrameState(n, fs); err != nil {
				return err
			}
		}
		for _, es := range ncs.Entries {
			if _, ok := d.dir[Page(es.Page)]; !ok {
				return fmt.Errorf("core: restore has a page-table entry on node %d for unallocated page %d", n, es.Page)
			}
		}
	}
	if s.DefProto != "" {
		id, err := d.lookupProto(s.DefProto)
		if err != nil {
			return err
		}
		d.defProto = id
	}
	for _, ps := range s.Protocols {
		id, err := d.lookupProto(ps.Name)
		if err != nil {
			return err
		}
		inst := d.instance(id)
		if len(ps.State) == 0 {
			continue
		}
		st, ok := inst.(ProtoStater)
		if !ok {
			return fmt.Errorf("core: protocol %s has captured state but no restore support", ps.Name)
		}
		if err := st.RestoreProtoState(ps.State); err != nil {
			return fmt.Errorf("core: restore protocol %s: %w", ps.Name, err)
		}
	}
	for n, ncs := range s.Nodes {
		ns := &nodeState{
			node:  n,
			space: memory.NewSpace(PageSize),
			table: make(map[Page]*Entry),
		}
		d.state[n] = ns
		for _, fs := range ncs.Frames {
			fr := ns.space.Ensure(Page(fs.Page))
			copy(fr.Data, fs.Data)
			fr.Access = memory.Access(fs.Access)
		}
		for _, es := range ncs.Entries {
			e := d.Entry(n, Page(es.Page))
			e.ProbOwner = es.ProbOwner
			e.Home = es.Home
			e.Owner = es.Owner
			e.Copyset.FromSlice(es.Copyset)
			e.InvalSeq = es.InvalSeq
			e.reqSeq = es.ReqSeq
		}
		for _, ng := range ncs.Notices {
			if ns.notices == nil {
				ns.notices = make(map[int][]WriteNotice)
			}
			ns.notices[ng.Barrier] = append([]WriteNotice(nil), ng.Notices...)
		}
	}
	d.locks = nil
	for _, ls := range s.Locks {
		lock := &lockState{id: ls.ID, home: ls.Home, holder: -1}
		for _, pg := range ls.Bound {
			lock.bound = append(lock.bound, Page(pg))
		}
		d.locks = append(d.locks, lock)
	}
	d.barriers = nil
	for _, bs := range s.Barriers {
		b := &barrierState{id: bs.ID, home: bs.Home, n: bs.N, gen: bs.Gen,
			notices: append([]WriteNotice(nil), bs.Notices...)}
		for _, n := range bs.Arrived {
			if b.arrivedNodes == nil {
				b.arrivedNodes = make(map[int]bool)
			}
			b.arrivedNodes[n] = true
		}
		d.barriers = append(d.barriers, b)
	}
	d.conds = nil
	for _, cs := range s.Conds {
		d.conds = append(d.conds, &condState{
			id: cs.ID, lock: cs.Lock, home: cs.Home, nextTkt: cs.NextTkt,
			tickets: make(map[int]condTicket),
		})
	}
	d.objects = newObjectSpace(d)
	for _, oa := range s.ObjAreas {
		id, err := d.lookupProto(oa.Proto)
		if err != nil {
			return err
		}
		d.objects.areas[areaKey{home: oa.Home, proto: id}] = &objArea{
			cur: Addr(oa.Cur), end: Addr(oa.End),
			attr: &Attr{Protocol: id, Home: oa.Home},
		}
	}
	d.stats = s.Stats
	d.timings = TimingLog{}
	for i := range s.Timings {
		ft := s.Timings[i]
		d.timings.Add(&ft)
	}
	if len(s.NodeFaults) == len(d.nodeFaults) {
		copy(d.nodeFaults, s.NodeFaults)
	}
	d.opHists = nil
	for _, hs := range s.OpHists {
		if err := d.OpHist(hs.Kind).restore(hs); err != nil {
			return err
		}
	}
	if s.Recovery != nil {
		var onRestart func(int)
		if d.recovery != nil {
			onRestart = d.recovery.cfg.OnRestart
		}
		d.EnableRecovery(RecoveryConfig{
			Timeout: s.Recovery.Timeout, Backoff: s.Recovery.Backoff,
			RetryMax: s.Recovery.RetryMax, Jitter: s.Recovery.Jitter,
			JitterSeed: s.Recovery.JitterSeed, OnRestart: onRestart,
		})
		rec := d.recovery
		if len(s.Recovery.Dead) != len(rec.dead) {
			return fmt.Errorf("core: restore recovery state for %d nodes into %d-node DSM", len(s.Recovery.Dead), len(rec.dead))
		}
		copy(rec.dead, s.Recovery.Dead)
		rec.stats = s.Recovery.Stats
		copy(rec.ckpts, s.Recovery.Ckpts)
		if rec.jitter != nil {
			if err := rec.jitter.BurnTo(s.Recovery.JitterDraws); err != nil {
				return err
			}
		}
	}
	if s.Profiler != nil {
		// Re-enabling resets the evidence and re-tracks the (restored)
		// allocation set; the migrate services register only if they are not
		// already (a system built with the same profiler configuration has
		// them).
		d.EnableProfiler(ProfilerConfig{
			Migrate: s.Profiler.Migrate, Stability: s.Profiler.Stability, Window: s.Profiler.Window,
		})
		p := d.prof
		p.epoch = s.Profiler.Epoch
		p.epochs = append([]EpochProfile(nil), s.Profiler.Epochs...)
		for _, snap := range s.Profiler.Pages {
			pp := p.pages[Page(snap.Page)]
			if pp == nil {
				return fmt.Errorf("core: profiler state for untracked page %d", snap.Page)
			}
			if len(snap.Counts) != len(pp.counts) || len(snap.Ring) != len(pp.ring) {
				return fmt.Errorf("core: profiler state shape mismatch for page %d", snap.Page)
			}
			for i, c := range snap.Counts {
				pp.counts[i] = pageCounters{reads: c.Reads, writes: c.Writes, fetches: c.Fetches, diffs: c.Diffs}
			}
			for i, r := range snap.Ring {
				pp.ring[i] = ringEntry{class: PageClass(r.Class), writer: r.Writer}
			}
			pp.pref = snap.Pref
			pp.stable = snap.Stable
		}
	}
	return nil
}
