package core

import (
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
	svcPage    = "dsm.page"
	svcInvald  = "dsm.invalidate"
	svcDiff    = "dsm.diff"
	svcLockAcq = "dsm.lock.acquire"
	svcLockRel = "dsm.lock.release"
	svcBarrier = "dsm.barrier"
)

// ctrlBytes is the wire size of a control message.
const ctrlBytes = 64

// registerServices wires the DSM communication module onto every node.
// Request, invalidation and diff servers are threaded so that concurrent
// requests — for the same page or different pages — are processed in
// parallel, the multithreaded behaviour Section 3 calls out; page
// installation runs on the node's one page-server thread, serialized per node
// like a softirq.
//
// Each handler receives the sender's record itself (see records.go),
// completes it with DSM, Thread and Node, runs the protocol routine on it and
// frees it.
func (d *DSM) registerServices() {
	for i := 0; i < d.rt.Nodes(); i++ {
		node := d.rt.Node(i)

		node.Register(svcRequest, true, func(h *pm2.Thread, arg interface{}) interface{} {
			r := private(d, arg.(*Request))
			if d.recovery != nil && d.NodeDead(r.From) {
				// A dead requester must not be granted anything — a write
				// request served now would strand ownership on a corpse.
				return nil
			}
			if r.Timing != nil {
				r.Timing.Request = h.Now().Sub(r.sentAt)
			}
			r.DSM, r.Thread, r.Node = d, h, h.Node()
			p := d.protoAt(r.Node, r.Page)
			if r.Write {
				p.WriteServer(r)
			} else {
				p.ReadServer(r)
			}
			put(d, &d.recs.requests, r)
			return nil
		})

		node.Register(svcPage, false, func(h *pm2.Thread, arg interface{}) interface{} {
			pm := private(d, arg.(*PageMsg))
			if pm.Timing != nil {
				pm.Timing.Transfer = h.Now().Sub(pm.sentAt)
				pm.Timing.Link = pm.link
			}
			pm.DSM, pm.Thread, pm.Node = d, h, h.Node()
			d.protoAt(pm.Node, pm.Page).ReceivePageServer(pm)
			put(d, &d.recs.pages, pm)
			return nil
		})

		node.Register(svcInvald, true, func(h *pm2.Thread, arg interface{}) interface{} {
			iv := private(d, arg.(*Invalidate))
			if d.recovery != nil && d.NodeDead(iv.From) {
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
				// Under recovery the ack names the acknowledging node, so a
				// retry loop can tick off exactly which holders answered.
				// Otherwise acks are only counted, and an empty one boxes
				// nothing.
				var ack interface{}
				if d.recovery != nil {
					ack = iv.Node
				}
				d.replyDirect(iv.Node, iv.From, iv.ack, ack)
			}
			put(d, &d.recs.invs, iv)
			return nil
		})

		node.Register(svcDiff, true, func(h *pm2.Thread, arg interface{}) interface{} {
			dm := private(d, arg.(*DiffMsg))
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
			put(d, &d.recs.diffs, dm)
			return nil
		})
	}
	d.registerSyncServices()
}

// sendRequest delivers a page request to dest (a control message).
func (d *DSM) sendRequest(from, dest int, m *Request) {
	m.sentAt = d.rt.Engine().Now()
	st := &d.stats
	st.Requests++
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(from, dest, svcRequest, m, ctrlBytes)
}

// sendPage delivers a page copy to dest as a bulk transfer. The message
// header travels inside the transfer's fixed base cost, so the charged
// payload is exactly the page, as in the paper's Table 3 measurements. The
// carrying link's profile name is recorded for FaultTiming attribution, so
// reports can split fault costs by link class (intra- vs inter-cluster).
func (d *DSM) sendPage(from, dest int, m *PageMsg) {
	m.sentAt = d.rt.Engine().Now()
	m.link = d.rt.Link(from, dest).Name
	st := &d.stats
	st.PageSends++
	st.PageBytes += int64(len(m.Data))
	st.Sends++
	st.Envelopes++
	d.rt.AsyncFrom(from, dest, svcPage, m, len(m.Data))
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
	d.rt.AsyncFrom(from, dest, svcInvald, d.newInvalidate(from, pg, newOwner, ack), ctrlBytes)
}

// sendDiffs delivers a batch of diffs to dest as one envelope and, if wait
// is true, blocks the calling thread until the destination has applied them
// (release semantics demand it).
//
// With recovery enabled the wait is bounded: if the home dies before
// acknowledging, each diff is re-routed to its page's current home (the
// recovery sweep re-homed the dead node's pages), applied locally when this
// node became the home. Diffs are absolute byte ranges, so a diff the dead
// home did manage to apply before crashing re-applies idempotently.
func (d *DSM) sendDiffs(t *pm2.Thread, dest int, diffs []*memory.Diff, wait bool) {
	size := ctrlBytes
	for _, df := range diffs {
		size += df.Size()
	}
	m := take(&d.recs.diffs)
	m.From, m.Diffs = t.Node(), diffs
	st := &d.stats
	st.DiffsSent += int64(len(diffs))
	st.DiffBytes += int64(size)
	st.Sends++
	st.Envelopes++
	var reply *sim.Chan
	if wait {
		reply = new(sim.Chan)
		m.reply = reply
	}
	// m is the receiver's once sent; only recovery's re-send, under which
	// nothing is recycled, sends it again.
	d.rt.AsyncFrom(t.Node(), dest, svcDiff, m, size)
	if !wait {
		return
	}
	if d.recovery == nil {
		reply.Recv(t.Proc())
		return
	}
	for attempt := 0; ; {
		if _, ok := reply.RecvTimeout(t.Proc(), d.recovery.retryDelay(attempt)); ok {
			return
		}
		attempt++
		d.recovery.stats.Retries++
		if !d.NodeDead(dest) {
			// The home is alive but silent: the diff or its ack may have
			// been lost on a lossy link, or is crawling through a
			// partition. Re-send — diffs apply idempotently, and a
			// duplicate ack just lingers unread in this call's private
			// reply channel. Counted like any other shipment.
			st.DiffsSent += int64(len(diffs))
			st.Sends++
			st.Envelopes++
			d.rt.AsyncFrom(t.Node(), dest, svcDiff, m, size)
			continue
		}
		// The home died with our diffs unacknowledged: re-route each diff
		// to its page's current home.
		for _, df := range diffs {
			d.rerouteDiff(t, df)
		}
		return
	}
}

// rerouteDiff delivers a diff to its page's current home after the original
// destination died. When this node *became* the home, the diff goes through
// the protocol's own DiffServer so its commit side effects (applying, then
// invalidating third-party copies) happen exactly as they would have at the
// old home.
func (d *DSM) rerouteDiff(t *pm2.Thread, df *memory.Diff) {
	pi := d.dir[df.Page]
	home := pi.home
	if home != t.Node() {
		d.sendDiffs(t, home, []*memory.Diff{df}, true)
		return
	}
	if ds, ok := d.protoFor(df.Page).(DiffServer); ok {
		ds.DiffServer(&DiffMsg{
			DSM: d, Thread: t, Node: t.Node(), From: t.Node(),
			Diffs: []*memory.Diff{df},
		})
		return
	}
	e := d.Entry(t.Node(), df.Page)
	e.Lock(t)
	if frame := d.state[t.Node()].space.Frame(df.Page); frame != nil {
		memory.ApplyDiff(frame.Data, df)
	}
	e.Unlock(t)
}
