package core

import (
	"fmt"
	"slices"

	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Synchronization objects of the generic core (Section 2.2, "Synchronization
// and consistency"): cluster-wide locks and barriers whose acquire/release
// events trigger the consistency actions of weak models. Each lock lives on
// a manager (home) node; acquire and release are RPCs to it, and grants are
// FIFO.

// lockWaiter is one queued acquire: the request its manager kept, answered at
// the grant, and the node it came from, so crash recovery can cancel a dead
// node's queued requests (answered too, so the cancelled caller's reply goes
// out as it always did).
type lockWaiter struct {
	req  *pm2.Request
	from int
}

// lockState is the manager-side state of one DSM lock.
type lockState struct {
	id     int
	home   int
	held   bool
	holder int // node id of current holder
	// waiters is the FIFO of queued acquires, at most one per thread; a
	// grant shifts the rest down in place, so the buffer is reused.
	waiters []lockWaiter
	bound   []Page // pages associated via BindLock (entry consistency)
}

// barrierWaiter is one blocked barrier arrival: its handler thread's own
// reply queue, which the grant is pushed to (the handler has no Call
// outstanding while it waits, and takes exactly that one value off it).
// participant is -1 for anonymous arrivals; fault-tolerant participants
// identify themselves so a restarted participant's re-arrival replaces its
// dead predecessor's slot instead of over-counting.
type barrierWaiter struct {
	ch          *sim.Chan
	participant int
}

// barrierState is the manager-side state of one DSM barrier. gen counts
// completed generations, so re-arrivals for an already-released generation
// return immediately. notices accumulates the write notices the current
// generation's arrivals piggybacked; the release distributes their
// canonical union to every participant. The buffers are kept across
// generations, so a warm barrier allocates nothing.
type barrierState struct {
	id      int
	home    int
	n       int
	gen     int
	arrived int
	waiters []barrierWaiter
	spare   []barrierWaiter // the last generation's emptied waiter list
	notices []WriteNotice
	// arrivedNodes tracks which nodes this generation's arrivals came
	// from: a generation that distributes write notices must have heard
	// from every node, or uncovered nodes would keep stale copies.
	arrivedNodes NodeSet
}

// barrierGrant is the value a completing barrier hands every participant:
// the aggregated write notices of the generation plus the home-migration
// notices the epoch's decisions produced, both in canonical order. Parked
// arrivals receive it through their waiter channel; the last arrival returns
// it directly as the RPC result. It is a record (records.go) with one holder
// per participant of its generation: each lets go once it has applied the
// grant (BarrierAs), and the last frees it. A participant that crashes never
// lets go, and its grant goes to the collector.
type barrierGrant struct {
	notices    []WriteNotice
	migrations []MigrationNotice
	holders    int
	// reply is every participant's RPC reply, charging the wire for the
	// notices the grant carries — piggybacking saves the round trips, not
	// the bytes. The reply path reads it as the handler returns, so one
	// serves them all.
	reply pm2.SizedReply
}

// grantReply is the RPC reply carrying g.
func grantReply(g *barrierGrant) interface{} {
	if g == nil {
		return nil
	}
	return &g.reply
}

// NewLock creates a cluster-wide lock managed by node home and returns its
// id.
func (d *DSM) NewLock(home int) int {
	if home < 0 || home >= d.rt.Nodes() {
		panic(fmt.Sprintf("core: lock home %d out of range", home))
	}
	id := len(d.locks)
	d.locks = append(d.locks, &lockState{id: id, home: home, holder: -1})
	return id
}

// BindLock associates a shared area with a lock, for entry-consistency
// protocols: the pages of the area are guaranteed consistent only to holders
// of that lock, so acquire/release actions can restrict their consistency
// work to the bound pages (Midway-style entry consistency; the paper's core
// requirement list names entry consistency alongside release and scope).
func (d *DSM) BindLock(id int, base Addr, size int) {
	if id < 0 || id >= len(d.locks) {
		panic(fmt.Sprintf("core: bind to unknown lock %d", id))
	}
	first := pageOf(base)
	last := pageOf(base + Addr(size-1))
	ls := d.locks[id]
	for pg := first; pg <= last; pg++ {
		if _, ok := d.dir[pg]; !ok {
			panic(fmt.Sprintf("core: binding unallocated page %d to lock %d", pg, id))
		}
		ls.bound = append(ls.bound, pg)
	}
}

// BoundPages returns the pages bound to lock id (empty for unbound locks).
func (d *DSM) BoundPages(id int) []Page {
	if id < 0 || id >= len(d.locks) {
		return nil
	}
	return d.locks[id].bound
}

// NewBarrier creates a cluster-wide barrier for n participants, managed by
// node 0, and returns its id.
func (d *DSM) NewBarrier(n int) int {
	if n < 1 {
		panic("core: barrier participant count must be >= 1")
	}
	id := len(d.barriers)
	d.barriers = append(d.barriers, &barrierState{id: id, home: 0, n: n})
	return id
}

// barrierReq is the wire payload of a barrier arrival; the lock RPCs carry
// the SyncEvent their hooks see (Lock is the id, Node the asking node).
type barrierReq struct {
	id          int
	from        int
	participant int // -1 for anonymous arrivals
	gen         int // arriving participant's generation; -1 when anonymous
	// notices are the arriving node's pending write notices, piggybacked on
	// the arrival message so barrier-synchronized invalidation costs no
	// extra round trip.
	notices []WriteNotice
}

// registerSyncServices installs the lock, barrier and condition managers on
// each node.
// The lock managers are quick handlers (pm2.RegisterQuick): an acquire is
// granted at once or queued and answered by the release that frees the lock,
// so neither handler ever needs a thread. The barrier manager is threaded,
// because the arrival that completes a generation runs the home migrations,
// which block (runMigrations).
func (d *DSM) registerSyncServices() {
	// The handlers capture only d: each is made once and serves every node.
	lockAcquire := func(r *pm2.Request, arg interface{}) (interface{}, bool) {
		req := arg.(*SyncEvent)
		if d.NodeDead(req.Node) {
			return nil, false // stale acquire from a crashed node
		}
		ls := d.locks[req.Lock]
		if ls.held {
			ls.waiters = append(ls.waiters, lockWaiter{req: r, from: req.Node})
			return nil, true // answered by grantNext
		}
		ls.held, ls.holder = true, req.Node
		return nil, false
	}

	lockRelease := func(_ *pm2.Request, arg interface{}) (interface{}, bool) {
		req := arg.(*SyncEvent)
		if d.NodeDead(req.Node) {
			return nil, false // stale release from a crashed node
		}
		ls := d.locks[req.Lock]
		if !ls.held {
			return fmt.Sprintf("core: release of unheld lock %d by node %d", req.Lock, req.Node), false
		}
		d.grantNext(ls)
		return nil, false
	}

	// Threaded, not quick: the completing arrival blocks in runMigrations.
	barrier := func(h *pm2.Thread, arg interface{}) interface{} {
		req := arg.(*barrierReq)
		if d.NodeDead(req.from) {
			return nil // stale arrival from a crashed node
		}
		bs := d.barriers[req.id]
		if req.participant >= 0 && req.gen > bs.gen {
			panic(fmt.Sprintf("core: barrier %d arrival for future generation %d (current %d) from=%d participant=%d",
				req.id, req.gen, bs.gen, req.from, req.participant))
		}
		// Notices fold in before any early return: a stale-generation
		// re-arrival's notices were already drained from the node, so
		// discarding them here would lose invalidation information for
		// good — folding them into the current generation delivers them
		// late, which is always safe (dropping a stale copy later
		// still drops it).
		bs.notices = append(bs.notices, req.notices...)
		bs.arrivedNodes.Add(req.from)
		if req.participant >= 0 && req.gen >= 0 && req.gen < bs.gen {
			return nil // that generation already completed
		}
		if req.participant >= 0 {
			for i := range bs.waiters {
				w := &bs.waiters[i]
				if w.participant != req.participant {
					continue
				}
				// Re-arrival of a participant that already arrived this
				// generation: its previous incarnation crashed while
				// parked here. Cancel the stranded handler and take
				// over its slot; the arrival count is unchanged.
				w.ch.Push(false)
				w.ch = h.ReplyQueue()
				g, _ := w.ch.Recv(h.Proc()).(*barrierGrant)
				return grantReply(g)
			}
		}
		bs.arrived++
		if bs.arrived == bs.n {
			bs.arrived = 0
			bs.gen++
			grant := take(&d.recs.grants)
			grant.notices = append(grant.notices, canonicalNotices(bs.notices)...)
			bs.notices = bs.notices[:0]
			covered := d.noticeCoverage(bs)
			if len(grant.notices) > 0 && !covered {
				// Fail fast: distributing notices to a generation that
				// did not hear from every live node would leave the
				// uncovered nodes' copies stale forever. NoticesUsable
				// gates on participant count; this catches the app
				// that clustered its participants on fewer nodes.
				panic(fmt.Sprintf("core: barrier %d released write notices without hearing from every node (notices require one participant per node)", bs.id))
			}
			bs.arrivedNodes.Clear()
			// Snapshot THIS generation's waiters before anything below
			// can block: the migration handshakes yield the token, and
			// a restarted participant may race through the completed
			// generation and park for the NEXT one meanwhile — that
			// park must land in the fresh waiter list, not receive this
			// generation's grant.
			waiters := bs.waiters
			bs.waiters, bs.spare = bs.spare[:0], nil
			if d.prof != nil && bs.n >= d.rt.Nodes() && covered && !d.prof.folding {
				// A cluster-wide generation completed with an arrival
				// from every live node (the same coverage write notices
				// demand — migration notices ride this grant, and an
				// uncovered node would keep routing to the demoted old
				// home): fold the profiler epoch and, with migration
				// enabled, re-home the nominated pages now. Every
				// participant of this generation is parked, so the
				// pages are quiescent.
				d.prof.folding = true
				ep, cands := d.foldEpoch()
				grant.migrations = d.runMigrations(h, &ep, cands)
				d.closeEpoch(ep)
				d.prof.folding = false
			}
			grant.holders = len(waiters) + 1
			grant.reply = pm2.SizedReply{Value: grant,
				Size: ctrlBytes + noticeBytes*(len(grant.notices)+len(grant.migrations))}
			for _, w := range waiters {
				w.ch.Push(grant)
			}
			clear(waiters)
			bs.spare = waiters[:0]
			return grantReply(grant)
		}
		ch := h.ReplyQueue()
		bs.waiters = append(bs.waiters, barrierWaiter{ch: ch, participant: req.participant})
		g, _ := ch.Recv(h.Proc()).(*barrierGrant)
		return grantReply(g)
	}

	condReserve, condBlock, condSignal := d.condServices()
	for i := 0; i < d.rt.Nodes(); i++ {
		node := d.rt.Node(i)
		node.RegisterQuick(svcLockAcq, lockAcquire)
		node.RegisterQuick(svcLockRel, lockRelease)
		node.Register(svcBarrier, true, barrier)
		node.RegisterQuick(svcCondReserve, condReserve)
		node.RegisterQuick(svcCondBlock, condBlock)
		node.RegisterQuick(svcCondSignal, condSignal)
	}
}

// noticeCoverage reports whether the completing generation heard from every
// node that could hold a copy: all nodes, less those currently dead (a
// corpse's copies died with it).
func (d *DSM) noticeCoverage(bs *barrierState) bool {
	for n := 0; n < d.rt.Nodes(); n++ {
		if bs.arrivedNodes.Contains(n) {
			continue
		}
		if d.NodeDead(n) {
			continue
		}
		return false
	}
	return true
}

// grantNext hands the lock to the oldest live waiter, answering its acquire,
// or marks it free. Dead waiters (their node crashed while queued) are
// answered in passing, which cancels them.
func (d *DSM) grantNext(ls *lockState) {
	for len(ls.waiters) > 0 {
		next := ls.waiters[0]
		ls.waiters = slices.Delete(ls.waiters, 0, 1)
		next.req.Answer(nil)
		if d.NodeDead(next.from) {
			continue
		}
		ls.holder = next.from
		return
	}
	ls.held = false
	ls.holder = -1
}

// Acquire takes the DSM lock id on behalf of t, blocking until granted, then
// runs every active protocol's lock_acquire action — "called after having
// acquired a lock".
func (d *DSM) Acquire(t *pm2.Thread, id int) {
	if id < 0 || id >= len(d.locks) {
		panic(fmt.Sprintf("core: acquire of unknown lock %d", id))
	}
	d.stats.Acquires++
	ev := d.newSyncEvent(t, id, false)
	t.CallID(d.locks[id].home, d.svc.lockAcq, ev, ctrlBytes, ctrlBytes)
	d.eachInstance(func(p Protocol) { p.LockAcquire(ev) })
	put(&d.recs.syncs, ev)
}

// newSyncEvent takes the record of one synchronization operation by t; the
// operation frees it once its hooks have run.
func (d *DSM) newSyncEvent(t *pm2.Thread, id int, barrier bool) *SyncEvent {
	ev := take(&d.recs.syncs)
	ev.DSM, ev.Thread, ev.Node, ev.Lock, ev.Barrier = d, t, t.Node(), id, barrier
	return ev
}

// Release runs every active protocol's lock_release action — "called before
// releasing a lock" — then releases the DSM lock id.
func (d *DSM) Release(t *pm2.Thread, id int) {
	if id < 0 || id >= len(d.locks) {
		panic(fmt.Sprintf("core: release of unknown lock %d", id))
	}
	d.stats.Releases++
	ev := d.newSyncEvent(t, id, false)
	d.eachInstance(func(p Protocol) { p.LockRelease(ev) })
	res := t.CallID(d.locks[id].home, d.svc.lockRel, ev, ctrlBytes, ctrlBytes)
	put(&d.recs.syncs, ev)
	if msg, bad := res.(string); bad {
		panic(msg) // misuse reported on the releasing thread, where it belongs
	}
}

// Barrier blocks t until all participants of barrier id arrive. A barrier
// is a release followed by an acquire for consistency purposes, so the
// protocols' release actions run before the wait and their acquire actions
// after it.
func (d *DSM) Barrier(t *pm2.Thread, id int) {
	d.BarrierAs(t, id, -1, -1)
}

// BarrierAs is Barrier with an explicit participant identity and generation,
// the fault-tolerant arrival form. A participant id >= 0 makes arrivals
// idempotent per generation: if this participant already arrived in gen (its
// previous incarnation crashed mid-barrier), the re-arrival takes over the
// old slot instead of over-counting, and an arrival for a generation that
// already completed returns immediately. Restart-aware applications track
// their own generation counter and re-arrive for the last generation they
// completed before resuming work.
func (d *DSM) BarrierAs(t *pm2.Thread, id, participant, gen int) {
	if id < 0 || id >= len(d.barriers) {
		panic(fmt.Sprintf("core: wait on unknown barrier %d", id))
	}
	d.stats.Barriers++
	ev := d.newSyncEvent(t, id, true)
	d.eachInstance(func(p Protocol) { p.LockRelease(ev) })
	// The release hooks above may have queued write notices; they ride the
	// arrival message, and the barrier's completion hands back the
	// generation's aggregated notices to apply locally — invalidation with
	// zero extra round trips.
	// The arrival is the caller's until the reply: the manager reads it
	// before it answers, and keeps nothing of it.
	req := take(&d.recs.arrivals)
	req.id, req.from, req.participant, req.gen = id, t.Node(), participant, gen
	req.notices = d.takeNotices(t.Node(), id, req.notices)
	res := t.CallID(d.barriers[id].home, d.svc.barrier, req,
		ctrlBytes+noticeBytes*len(req.notices), ctrlBytes)
	put(&d.recs.arrivals, req)
	if g, ok := res.(*barrierGrant); ok {
		// Migrations first: the write notices (and the protocols' acquire
		// hooks below) must see the post-migration placement.
		if len(g.migrations) > 0 {
			d.applyMigrations(t, g.migrations)
		}
		if len(g.notices) > 0 {
			d.applyNotices(t, g.notices)
		}
		if g.holders--; g.holders == 0 {
			put(&d.recs.grants, g)
		}
	}
	d.eachInstance(func(p Protocol) { p.LockAcquire(ev) })
	put(&d.recs.syncs, ev)
}

// FlushRelease runs every active protocol's release action (as a barrier
// would) without any synchronization RPC: an explicit commit point. Restart-
// aware applications call it before recording a local checkpoint, so the
// checkpoint never claims work whose unflushed diffs would die with the
// node; the following barrier's own release pass then finds nothing dirty.
func (d *DSM) FlushRelease(t *pm2.Thread) {
	ev := d.newSyncEvent(t, -1, true)
	d.eachInstance(func(p Protocol) { p.LockRelease(ev) })
	put(&d.recs.syncs, ev)
}
