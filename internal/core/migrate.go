package core

import (
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Home migration: the decision half of the sharing-pattern profiler. At the
// completion of a cluster-wide barrier the manager folds the epoch counters
// (profiler.go) and re-homes each nominated page onto its dominant writer
// via the svcMigrateHome handshake below; the metadata update then rides the
// barrier grant as migration notices — the same piggyback write notices
// use, so re-homing a page costs one page transfer plus zero extra round
// trips.
//
// The handshake reuses the recovery manager's re-home discipline: the new
// home becomes the page's owner with the authoritative copy and a scrubbed
// copyset, the old owner is demoted and drops its frame, and every other
// node's entry is redirected when its barrier grant arrives. Wire page
// copies ride pooled buffers that are reclaimed exactly once on every path,
// including a crash mid-handshake (the faulty-migration tests pin this).

// Service names of the migration handshake.
const (
	svcMigrateHome    = "dsm.migrate"
	svcMigrateInstall = "dsm.migrate.install"
)

// MigrationNotice tells a barrier participant that a page moved home during
// the barrier: update the local entry's home and owner hint. Distributed in
// canonical (page-ascending) order inside the barrier grant.
type MigrationNotice struct {
	Page    Page
	NewHome int
}

// migMsg asks a page's current owner to hand the page over to newHome.
type migMsg struct {
	page    Page
	newHome int
	from    int       // manager node running the decision engine
	reply   *sim.Chan // bool: handshake completed (idempotently) or declined
}

// migInstallMsg carries the page to its new home. data is a pooled wire
// copy; the install handler reclaims it exactly once, applied or not.
// Stale installs need no sequence numbers: an install from a since-crashed
// sender is discarded outright (the crash sweep has resolved that
// handshake).
type migInstallMsg struct {
	page    Page
	data    []byte
	access  memory.Access
	copyset []int
	from    int // old owner
	reply   *sim.Chan
}

// registerMigrateServices installs the handshake services on every node.
// Called lazily from EnableProfiler, so profiler-off systems carry none.
func (d *DSM) registerMigrateServices() {
	// Old-owner side: package the frame and copyset, ship them to the new
	// home, demote ourselves only once the install is acknowledged.
	serveHome := func(h *pm2.Thread, arg interface{}) interface{} {
		d.serveMigrate(h, arg.(*migMsg))
		return nil
	}
	// New-home side: install the authoritative copy and take ownership.
	serveInstall := func(h *pm2.Thread, arg interface{}) interface{} {
		d.serveMigrateInstall(h, arg.(*migInstallMsg))
		return nil
	}
	d.svc.migrateHome, d.svc.migrateInstall = d.rt.ServiceID(svcMigrateHome), d.rt.ServiceID(svcMigrateInstall)
	for i := 0; i < d.rt.Nodes(); i++ {
		node := d.rt.Node(i)
		node.Register(svcMigrateHome, true, serveHome)
		node.Register(svcMigrateInstall, true, serveInstall)
	}
}

// replyDirect sends a control-sized value back on a private reply channel.
func (d *DSM) replyDirect(from, dest int, ch *sim.Chan, v interface{}) {
	d.rt.Network().SendDirect(from, dest, ch, ctrlBytes, v, d.rt.Link(from, dest).CtrlMsg)
}

// serveMigrate runs on the page's current owner. The entry state is only
// demoted after the new home acknowledged the install, so an install lost to
// a crash leaves the owner intact (the handshake then resolves through the
// recovery sweep, exactly once).
func (d *DSM) serveMigrate(h *pm2.Thread, m *migMsg) {
	if d.NodeDead(m.from) {
		return
	}
	node := h.Node()
	e := d.Entry(node, m.page)
	e.Lock(h)
	if !e.Owner {
		// Not (or no longer) the owner: the page already sits at the
		// destination (report success idempotently), or ownership moved
		// and this epoch's decision is stale (decline).
		done := e.Home == m.newHome && e.ProbOwner == m.newHome
		e.Unlock(h)
		d.replyDirect(node, m.from, m.reply, done)
		return
	}
	frame := d.state[node].space.Frame(m.page)
	if frame == nil {
		e.Unlock(h)
		d.replyDirect(node, m.from, m.reply, false)
		return
	}
	h.Compute(d.costs.Server) // package the page, like any page serve
	data := d.bufs.Get()
	copy(data, frame.Data)
	access := frame.Access
	copyset := make([]int, 0, e.Copyset.Len())
	e.Copyset.ForEach(func(n int) {
		if n != m.newHome {
			copyset = append(copyset, n)
		}
	})
	// The entry lock stays held across the whole install round trip: a
	// concurrent server action (a non-participant thread's write fetch
	// under an ownership-transferring protocol) must not move ownership
	// away between the snapshot above and the demotion below — it blocks
	// on the lock and, once the handshake finished, correctly finds the
	// demoted entry and forwards to the new home.

	ack := new(sim.Chan)
	d.watch(ack, node, m.newHome, NodeSet{})
	st := &d.stats
	st.PageSends++
	st.PageBytes += PageSize
	st.Sends++
	st.Envelopes++
	im := &migInstallMsg{
		page: m.page, data: data, access: access, copyset: copyset,
		from: node, reply: ack,
	}
	d.rt.AsyncFrom(node, m.newHome, d.svc.migrateInstall, im, PageSize)
	if _, ok := d.await(h, ack); !ok {
		// The new home died before acknowledging: the page stays here,
		// untouched, and the manager is told so. The in-flight wire copy
		// died with the node (dropped, never double-freed).
		e.Unlock(h)
		d.replyDirect(node, m.from, m.reply, false)
		return
	}
	// Install acknowledged: demote. The old owner drops its frame entirely —
	// the universally safe end state (any later access simply re-faults
	// toward the new home), and the one migrate_thread requires (a page must
	// be accessible on exactly one node there).
	e.Owner = false
	e.Home = m.newHome
	e.ProbOwner = m.newHome
	e.Copyset.Clear()
	d.state[node].space.Drop(m.page)
	e.Unlock(h)
	d.replyDirect(node, m.from, m.reply, true)
}

// serveMigrateInstall runs on the new home: install the authoritative copy,
// take ownership and the scrubbed copyset, reclaiming the pooled wire buffer
// exactly once. The old owner holds its entry across the handshake, so
// nothing else can have moved ownership here meanwhile.
func (d *DSM) serveMigrateInstall(h *pm2.Thread, m *migInstallMsg) {
	if d.NodeDead(m.from) {
		// The old owner died after shipping this install: the crash sweep
		// already resolved the handshake its way (promoting the freshest
		// survivor), and applying a dead regime's install here would mint a
		// second owner whose next release invalidates the real home's
		// reference copy. Discard it, reclaiming the pooled wire copy.
		d.bufs.Put(m.data)
		return
	}
	node := h.Node()
	e := d.Entry(node, m.page)
	e.Lock(h)
	h.Compute(d.costs.Install)
	frame := d.state[node].space.Ensure(m.page)
	copy(frame.Data, m.data)
	d.bufs.Put(m.data)
	frame.Access = m.access
	e.Owner = true
	e.Home = node
	e.ProbOwner = node
	e.Copyset.FromSlice(m.copyset)
	e.Copyset.Remove(node)
	e.Unlock(h)
	// Restore the protocol's home invariants here, exactly as a fresh
	// allocation would (write-protection for the twin/diff protocols,
	// manager hints for the fixed managers). See reinitHome.
	d.reinitHome(m.page, node)
	d.replyDirect(node, m.from, m.reply, true)
}

// reinitHome re-runs the protocol's page initializer after pg's home moved
// to a new node (recovery re-home or migration install), restoring the
// invariants promotion broke: home-based multiple-writer protocols
// write-protect the reference copy so home writes fault and are tracked,
// and managed schemes re-aim their request hints. Protocols without a
// PageInitializer need no repair.
func (d *DSM) reinitHome(pg Page, home int) {
	if init, ok := d.protoFor(pg).(PageInitializer); ok {
		init.InitPage(pg, home)
	}
}

// migFlight is one in-flight home-migration handshake: the request is on the
// wire (or the move was metadata-only) and the reply not yet awaited, so the
// barrier manager overlaps every epoch's handshakes instead of paying one
// serialized round trip per page inside the barrier.
type migFlight struct {
	pg      Page
	newHome int
	owner   int
	reply   *sim.Chan
	start   sim.Time
}

// startMigration begins re-homing pg onto newHome: locate the current owner
// and ship the handshake request. Returns nil when the migration is skipped
// (page busy, nodes dead, no owner) — the decision simply re-arises next
// epoch if the evidence persists.
func (d *DSM) startMigration(h *pm2.Thread, pg Page, newHome int) *migFlight {
	if d.NodeDead(newHome) {
		return nil
	}
	owner := -1
	for n := 0; n < d.rt.Nodes(); n++ {
		if d.NodeDead(n) {
			continue
		}
		e := d.state[n].entry(pg)
		if e == nil {
			continue
		}
		if e.Pending {
			// A fetch in flight: the page is not quiescent at this barrier
			// (a non-participant thread is mid-fault). Skip this epoch.
			return nil
		}
		if e.Owner && owner < 0 {
			owner = n
		}
	}
	if owner < 0 {
		return nil
	}
	f := &migFlight{pg: pg, newHome: newHome, owner: owner, start: h.Now()}
	if owner == newHome {
		return f // already in place: commit is metadata-only
	}
	f.reply = new(sim.Chan)
	d.watch(f.reply, h.Node(), owner, NodeSet{})
	m := &migMsg{page: pg, newHome: newHome, from: h.Node(), reply: f.reply}
	st := &d.stats
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(h.Node(), owner, d.svc.migrateHome, m, ctrlBytes)
	return f
}

// finishMigration awaits one handshake's completion and commits the
// allocation metadata. An owner dying mid-handshake ends the wait at its
// crash and resolves through the crash sweep (exactly once — the install
// either reached the new home, which then owns the page and the sweep keeps
// it, or it did not and the sweep re-homed onto the freshest survivor); the
// decision is not retried.
func (d *DSM) finishMigration(h *pm2.Thread, f *migFlight) bool {
	// f.reply is nil for a metadata-only move: nothing to await. A declined
	// handshake, or the owner's crash (peerDead), leaves the page in place.
	if f.reply != nil {
		if v, _ := d.await(h, f.reply); v != true {
			return false
		}
	}
	pi := d.dir[f.pg]
	pi.home = f.newHome
	d.dir[f.pg] = pi
	d.stats.HomeMigrations++
	ft := d.recs.newTiming()
	ft.Start, ft.Protocol, ft.Total = f.start, "migrate_home", h.Now().Sub(f.start)
	ft.Link = d.rt.Link(f.owner, f.newHome).Name
	d.logTiming(ft)
	return true
}

// runMigrations performs the epoch's nominated migrations — every handshake
// request departs before the first reply is awaited, so the page transfers
// overlap across owners — and returns the notices to piggyback on the
// barrier grant, in canonical (page-ascending) order.
func (d *DSM) runMigrations(h *pm2.Thread, ep *EpochProfile, cands []migCandidate) []MigrationNotice {
	flights := make([]*migFlight, 0, len(cands))
	for _, c := range cands {
		if f := d.startMigration(h, c.pg, c.writer); f != nil {
			flights = append(flights, f)
		}
	}
	var notices []MigrationNotice
	for _, f := range flights {
		if d.finishMigration(h, f) {
			notices = append(notices, MigrationNotice{Page: f.pg, NewHome: f.newHome})
			ep.Migrations++
		}
	}
	return notices
}

// applyMigrations updates this node's page-table entries from the barrier
// grant's migration notices. Idempotent; runs on every participant before
// the write notices are applied and before any protocol acquire hook, so
// both see the post-migration placement.
func (d *DSM) applyMigrations(t *pm2.Thread, ms []MigrationNotice) {
	node := t.Node()
	for _, m := range ms {
		e := d.Entry(node, m.Page)
		e.Lock(t)
		e.Home = m.NewHome
		if !e.Owner {
			e.ProbOwner = m.NewHome
		}
		e.Unlock(t)
	}
}
