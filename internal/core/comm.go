package core

import (
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Service names used by the DSM communication module. The module provides
// the paper's "limited set of communication routines": sending a page
// request, sending a page, invalidating a page, sending diffs. Everything
// is carried by PM2's RPC mechanism.
const (
	svcRequest = "dsm.request"
	svcInvald  = "dsm.invalidate"
	svcDiff    = "dsm.diff"
	svcLockAcq = "dsm.lock.acquire"
	svcLockRel = "dsm.lock.release"
	svcBarrier = "dsm.barrier"
)

// ctrlBytes is the wire size of a control message.
const ctrlBytes = 64

// serviceIDs are the channel ids of the services the core sends to on its
// hot paths, resolved once at registration (see pm2.Runtime.ServiceID).
type serviceIDs struct {
	request, invald, diff, lockAcq, lockRel, barrier madeleine.ChanID
	migrateHome, migrateInstall                      madeleine.ChanID
}

// registerServices wires the DSM communication module onto every node.
// Request, invalidation and diff servers are threaded so that concurrent
// requests — for the same page or different pages — are processed in
// parallel, the multithreaded behaviour Section 3 calls out; page
// installation is serial, one page at a time per node like a softirq, on the
// node's installer (see install.go).
//
// Each handler receives the sender's record itself (see records.go),
// completes it with DSM, Thread and Node, runs the protocol routine on it and
// frees it.
func (d *DSM) registerServices() {
	// Interned first, the install channel gets a place in every node's queue
	// table when the table is made (see Network.queue).
	d.installCh = d.rt.Network().ChannelID(installChannel)
	d.installSink = d.deliverInstall
	// So are the services, in the order they are registered below, so
	// that each node's service table is made once (see pm2.Node.Register).
	rt := d.rt
	d.svc = serviceIDs{
		request: rt.ServiceID(svcRequest), invald: rt.ServiceID(svcInvald), diff: rt.ServiceID(svcDiff),
		lockAcq: rt.ServiceID(svcLockAcq), lockRel: rt.ServiceID(svcLockRel),
		barrier: rt.ServiceID(svcBarrier),
	}
	rt.ServiceID(svcCondReserve)
	rt.ServiceID(svcCondBlock)
	rt.ServiceID(svcCondSignal)
	// The handlers capture only d: each is made once and serves every node.
	serveRequest := func(h *pm2.Thread, arg interface{}) interface{} {
		r := arg.(*Request)
		if d.NodeDead(r.From) {
			// A dead requester must not be granted anything — a write
			// request served now would strand ownership on a corpse.
			return nil
		}
		if ft := liveTiming(r.Timing, r.ftSeq); ft != nil {
			ft.Request = h.Now().Sub(r.sentAt)
		}
		r.DSM, r.Thread, r.Node = d, h, h.Node()
		p := d.protoAt(r.Node, r.Page)
		if r.Write {
			p.WriteServer(r)
		} else {
			p.ReadServer(r)
		}
		put(&d.recs.requests, r)
		return nil
	}

	serveInvalidate := func(h *pm2.Thread, arg interface{}) interface{} {
		iv := arg.(*Invalidate)
		if d.NodeDead(iv.From) {
			// An invalidation from a node that has since crashed speaks
			// for a dead regime: the recovery sweep already rebuilt the
			// page's home/copyset around the crash, and applying the
			// stale order could drop the promoted home's reference
			// copy. Any copy it meant to kill is in the new home's
			// copyset and dies at the next release instead.
			return nil
		}
		iv.DSM, iv.Thread, iv.Node = d, h, h.Node()
		// Any invalidation supersedes a page copy still in flight
		// to this node (see Entry.InvalSeq).
		d.Entry(iv.Node, iv.Page).InvalSeq++
		d.protoAt(iv.Node, iv.Page).InvalidateServer(iv)
		if iv.ack != nil {
			// The ack names the acknowledging node, so the round ticks
			// off exactly which holders answered.
			d.replyDirect(iv.Node, iv.From, iv.ack, iv.Node)
		}
		put(&d.recs.invs, iv)
		return nil
	}

	serveDiff := func(h *pm2.Thread, arg interface{}) interface{} {
		dm := arg.(*DiffMsg)
		dm.DSM, dm.Thread, dm.Node = d, h, h.Node()
		if len(dm.Diffs) > 0 {
			ds, ok := d.protoAt(dm.Node, dm.Diffs[0].Page).(DiffServer)
			if !ok {
				panic("core: diffs sent to a protocol without a DiffServer")
			}
			ds.DiffServer(dm)
		}
		if dm.reply != nil {
			d.replyDirect(dm.Node, dm.From, dm.reply, nil)
		}
		for _, df := range dm.Diffs {
			FreeDiff(d, df)
		}
		put(&d.recs.diffMsgs, dm)
		return nil
	}

	for i := 0; i < d.rt.Nodes(); i++ {
		node := d.rt.Node(i)
		node.Register(svcRequest, true, serveRequest)
		node.Register(svcInvald, true, serveInvalidate)
		node.Register(svcDiff, true, serveDiff)
	}
	d.registerSyncServices()
	ins := make([]installer, len(d.installers))
	for i := range ins {
		d.installers[i] = ins[i].init(d, i)
	}
}

// sendRequest delivers a page request to dest (a control message), or to the
// page's home, which the crash sweep keeps alive, if dest is dead: a hint a
// late page or invalidation aimed at a crashed node.
func (d *DSM) sendRequest(from, dest int, m *Request) {
	if d.NodeDead(dest) {
		dest = d.dir[m.Page].home
	}
	d.trackRequest(m, dest)
	m.sentAt = d.rt.Engine().Now()
	st := &d.stats
	st.Requests++
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(from, dest, d.svc.request, m, ctrlBytes)
}

// sendPage delivers a page copy to dest's installer as a bulk transfer. The
// message header travels inside the transfer's fixed base cost, so the charged
// payload is exactly the page, as in the paper's Table 3 measurements. The
// carrying link's profile name is recorded for FaultTiming attribution, so
// reports can split fault costs by link class (intra- vs inter-cluster).
func (d *DSM) sendPage(from, dest int, m *PageMsg) {
	m.Node = dest // a drop on the way strands dest's fetch (strandDropped)
	m.sentAt = d.rt.Engine().Now()
	m.link = d.rt.Link(from, dest).Name
	st := &d.stats
	st.PageSends++
	st.PageBytes += int64(len(m.Data))
	st.Sends++
	st.Envelopes++
	d.rt.Network().SendBulkID(from, dest, d.installCh, len(m.Data), m)
}

// newInvalidate takes an invalidation record for pg, sent by from.
func (d *DSM) newInvalidate(from int, pg Page, newOwner int, ack *sim.Chan) *Invalidate {
	iv := take(&d.recs.invs)
	iv.Page, iv.From, iv.NewOwner, iv.ack = pg, from, newOwner, ack
	return iv
}

// sendInvalidate delivers an invalidation of pg to dest as its own envelope:
// InvalidateCopies' per-holder round, run inside a fault. Release-time
// invalidations coalesce per destination in the outbox (outbox.go) instead.
func (d *DSM) sendInvalidate(from, dest int, pg Page, newOwner int, ack *sim.Chan) {
	st := &d.stats
	st.Invalidations++
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(from, dest, d.svc.invald, d.newInvalidate(from, pg, newOwner, ack), ctrlBytes)
}

// sendDiffs delivers df to dest as one envelope and, if wait is true,
// blocks the calling thread until the destination has applied it (release
// semantics demand it).
//
// A home that dies before acknowledging ends the wait at its crash, and the
// diff is re-routed to its page's current home (the recovery sweep re-homed
// the dead node's pages), applied locally when this node became the home. Diffs are absolute byte ranges, so a diff the dead
// home did manage to apply before crashing re-applies idempotently.
func (d *DSM) sendDiffs(t *pm2.Thread, dest int, df *memory.Diff, wait bool) {
	size := ctrlBytes + df.Size()
	st := &d.stats
	st.DiffBytes += int64(size)
	var reply *sim.Chan
	if wait {
		reply = new(sim.Chan)
		d.watch(reply, t.Node(), dest, NodeSet{})
	}
	// The shipment is a record holding the diff, freed (and the diff let
	// go) by its receiver.
	m := take(&d.recs.diffMsgs)
	m.From, m.one[0], m.reply = t.Node(), df, reply
	m.Diffs = m.one[:]
	df.Refs++
	st.DiffsSent++
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(t.Node(), dest, d.svc.diff, m, size)
	if wait {
		if _, ok := d.await(t, reply); !ok {
			// The home died with our diff unacknowledged: re-route it,
			// and this sender's hold on it, to its page's current home.
			d.rerouteDiff(t, df)
			return
		}
	}
	FreeDiff(d, df)
}

// rerouteDiff delivers a diff, and the caller's hold on it, to its page's
// current home after the original destination died. When this node *became*
// the home, the diff goes through the protocol's own DiffServer so its commit
// side effects (applying, then invalidating third-party copies) happen
// exactly as they would have at the old home.
func (d *DSM) rerouteDiff(t *pm2.Thread, df *memory.Diff) {
	if home := d.dir[df.Page].home; home != t.Node() {
		d.sendDiffs(t, home, df, true)
		return
	}
	if ds, ok := d.protoFor(df.Page).(DiffServer); ok {
		ds.DiffServer(&DiffMsg{
			DSM: d, Thread: t, Node: t.Node(), From: t.Node(),
			Diffs: []*memory.Diff{df},
		})
	} else {
		e := d.Entry(t.Node(), df.Page)
		e.Lock(t)
		if frame := d.state[t.Node()].space.Frame(df.Page); frame != nil {
			memory.ApplyDiff(frame.Data, df)
		}
		e.Unlock(t)
	}
	FreeDiff(d, df)
}
