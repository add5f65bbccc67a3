package core

import (
	"bytes"
	"cmp"
	"slices"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
)

// This file is the release side of the DSM communication module: a
// per-release outbox (Batch) that coalesces the invalidations and diffs a
// critical section accumulated into ONE multi-part envelope per destination,
// plus the write-notice machinery that lets barriers carry invalidation
// information for free.
//
// Determinism contract: a Batch flushes in canonical order — destinations
// ascending, and within each destination invalidations then diffs, each
// sorted by page — so the wire trace (and therefore the TimingLog) is
// independent of the order operations were queued in. Shuffling insertion
// order must not move a single virtual timestamp; a property test pins this.

// noticeBytes is the wire size charged per write notice piggybacked on a
// barrier message.
const noticeBytes = 16

// WriteNotice records that Writer committed modifications to Page during the
// synchronization epoch ending at a barrier. The barrier aggregates every
// participant's notices and hands the union back with the release, so
// holders of stale copies self-invalidate without any dedicated
// invalidation round trip.
type WriteNotice struct {
	Page   Page
	Writer int
}

// batchOp is one queued operation: an invalidation of page at dest (diff is
// nil), or a diff of page bound for dest.
type batchOp struct {
	dest     int
	page     Page
	newOwner int          // invalidations: the new-owner hint
	diff     *memory.Diff // diffs
	noticed  bool         // diffs: invalidation deferred to barrier write notices
}

// Batch is a release's outbox: protocols queue the invalidations and diffs of
// one release into it, then Flush ships one envelope per destination and
// waits once for all of them. Everything is one flat list of operations,
// sorted once at Flush, and the buffers a flush builds its envelopes in stay
// with the Batch, which is recycled like any record (see records.go).
type Batch struct {
	d       *DSM
	t       *pm2.Thread
	node    int
	ops     []batchOp
	elems   []pm2.VecElem // the envelopes of one flush, back to back
	flights []batchFlight
}

// NewBatch opens an outbox for operations sent on behalf of t's node. It
// lives until its Flush, which every caller owes it exactly once.
func (d *DSM) NewBatch(t *pm2.Thread) *Batch {
	b := take(&d.recs.batches)
	b.d, b.t, b.node = d, t, t.Node()
	return b
}

// Invalidate queues an invalidation of pg at dest. Self-invalidations are
// dropped (the caller owns its local state).
func (b *Batch) Invalidate(dest int, pg Page, newOwner int) {
	if dest != b.node {
		b.ops = append(b.ops, batchOp{dest: dest, page: pg, newOwner: newOwner})
	}
}

// Diff queues a diff for delivery to dest (the page's home). noticed defers
// the home's eager third-party invalidation to the sender's barrier write
// notices.
func (b *Batch) Diff(dest int, diff *memory.Diff, noticed bool) {
	b.d.profDiff(b.node, diff.Page)
	b.ops = append(b.ops, batchOp{dest: dest, page: diff.Page, diff: diff, noticed: noticed})
}

// canonicalize sorts the operations into flush order — destination, then
// invalidations by (page, newOwner), then diffs by page with a content
// tiebreak — and deduplicates invalidations. Queued order is deliberately
// forgotten: determinism must not depend on it, even for the odd caller that
// queues two diffs of one page to one destination.
//
// One destination needs one invalidation of a page per flush no matter how
// many times it was queued (the last in flush order — the highest owner hint
// — wins), so Invalidations counts pages invalidated, not queue calls.
func (b *Batch) canonicalize() {
	slices.SortStableFunc(b.ops, func(x, y batchOp) int {
		switch {
		case x.dest != y.dest:
			return cmp.Compare(x.dest, y.dest)
		case x.diff != nil && y.diff != nil:
			return diffCompare(x.diff, y.diff)
		case x.diff != nil:
			return 1
		case y.diff != nil:
			return -1
		case x.page != y.page:
			return cmp.Compare(x.page, y.page)
		}
		return cmp.Compare(x.newOwner, y.newOwner)
	})
	kept := b.ops[:0]
	for i, op := range b.ops {
		if next := i + 1; op.diff == nil && next < len(b.ops) && b.ops[next].diff == nil &&
			b.ops[next].dest == op.dest && b.ops[next].page == op.page {
			continue
		}
		kept = append(kept, op)
	}
	clear(b.ops[len(kept):])
	b.ops = kept
}

// diffCompare is the canonical total order on diffs: page, then entry list
// (offset, then bytes, lexicographically). Identical diffs compare equal,
// which a stable sort keeps stable — so the order never depends on how the
// caller happened to queue them.
func diffCompare(a, b *memory.Diff) int {
	if a.Page != b.Page {
		return cmp.Compare(a.Page, b.Page)
	}
	for i := 0; i < len(a.Entries) && i < len(b.Entries); i++ {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea.Off != eb.Off {
			return cmp.Compare(ea.Off, eb.Off)
		}
		if c := bytes.Compare(ea.Data, eb.Data); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a.Entries), len(b.Entries))
}

// liveRuns yields, in flush order, each destination with its run of
// operations (flush order keeps them together). A run whose destination died
// is not yielded: a dead holder needs no invalidation — its copies died with
// it — but its diffs are re-routed to their pages' current homes.
func (b *Batch) liveRuns(yield func(dest int, run []batchOp) bool) {
	for lo := 0; lo < len(b.ops); {
		dest, hi := b.ops[lo].dest, lo+1
		for hi < len(b.ops) && b.ops[hi].dest == dest {
			hi++
		}
		run := b.ops[lo:hi]
		lo = hi
		if b.d.recovery != nil && b.d.NodeDead(dest) {
			b.reroute(run)
		} else if !yield(dest, run) {
			return
		}
	}
}

// reroute delivers a run's diffs to their pages' current homes.
func (b *Batch) reroute(run []batchOp) {
	for _, op := range run {
		if op.diff != nil {
			b.d.rerouteDiff(b.t, op.diff)
		}
	}
}

// batchFlight is one awaited destination envelope of a flush.
type batchFlight struct {
	dest  int
	run   []batchOp     // the destination's operations
	elems []pm2.VecElem // their envelope, as sent (recovery re-sends it)
	acks  int           // invalidations whose acknowledgement the reply coalesces
	call  *pm2.VecCall
}

// Flush ships the outbox: destinations ascending, one envelope each. With
// wait true it blocks until every destination completed all of its
// operations — all envelopes depart before the first reply is awaited, so
// flushes to distinct destinations overlap instead of serializing. Flush
// ends the batch's life: the caller must not touch it again.
func (b *Batch) Flush(wait bool) {
	d := b.d
	if len(b.ops) > 0 {
		b.canonicalize() // before any send OR reroute: order must never depend on insertion
		b.send(wait)
	}
	put(d, &d.recs.batches, b)
}

// send ships each destination's run as one multi-part envelope whose single
// reply coalesces every acknowledgement.
func (b *Batch) send(wait bool) {
	d := b.d
	st := &d.stats
	// Grown once up front: the flights below keep slices of it.
	b.elems = slices.Grow(b.elems[:0], len(b.ops))
	for dest, run := range b.liveRuns {
		first, acks := len(b.elems), 0
		for _, op := range run {
			if op.diff == nil {
				b.elems = append(b.elems, pm2.VecElem{Svc: svcInvald, Size: ctrlBytes,
					Arg: d.newInvalidate(b.node, op.page, op.newOwner, nil)})
				acks++
				continue
			}
			dm := take(&d.recs.diffs)
			dm.From, dm.Noticed, dm.one[0] = b.node, op.noticed, op.diff
			dm.Diffs = dm.one[:]
			size := ctrlBytes + op.diff.Size()
			b.elems = append(b.elems, pm2.VecElem{Svc: svcDiff, Size: size, Arg: dm})
			st.DiffBytes += int64(size)
		}
		elems := b.elems[first:]
		st.Invalidations += int64(acks)
		st.DiffsSent += int64(len(elems) - acks)
		st.Sends += int64(len(elems))
		st.Envelopes++
		if wait {
			b.flights = append(b.flights, batchFlight{dest: dest, run: run, elems: elems, acks: acks,
				call: d.rt.StartVecFrom(b.node, dest, elems, ctrlBytes)})
		} else {
			d.rt.AsyncVecFrom(b.node, dest, elems)
		}
	}
	for i := range b.flights {
		b.waitFlight(&b.flights[i])
	}
}

// waitFlight blocks until one destination's envelope is fully processed.
// With recovery enabled the wait is bounded: a silent-but-alive destination
// gets the (idempotent) envelope again; a dead one needs no invalidations
// and has its diffs re-routed to the pages' current homes.
func (b *Batch) waitFlight(f *batchFlight) {
	d, t := b.d, b.t
	if d.recovery == nil {
		f.call.Reply().Recv(t.Proc())
	} else {
		for attempt := 0; ; {
			if _, ok := f.call.Reply().RecvTimeout(t.Proc(), d.recovery.retryDelay(attempt)); ok {
				break
			}
			attempt++
			d.recovery.stats.Retries++
			if d.NodeDead(f.dest) {
				b.reroute(f.run)
				return
			}
			// Alive but silent: the envelope or its coalesced reply was lost
			// or is crawling through a partition. Re-send the whole envelope
			// as a new call — invalidations and diffs apply idempotently, and
			// the abandoned call, never released, keeps a late first reply to
			// itself. Counted like any other shipment.
			st := &d.stats
			st.Invalidations += int64(f.acks)
			st.DiffsSent += int64(len(f.elems) - f.acks)
			st.Sends += int64(len(f.elems))
			st.Envelopes++
			f.call = d.rt.StartVecFrom(b.node, f.dest, f.elems, ctrlBytes)
		}
	}
	f.call.Release()
	d.stats.InvAcks += int64(f.acks)
}

// NoticesUsable reports whether a release at this synchronization point may
// defer invalidation to barrier write notices: the release must belong to an
// actual cluster-wide barrier arrival —
// participant count >= node count, under the SPMD convention every workload
// here follows (one barrier participant per node; a barrier whose
// participants cluster on fewer nodes must not rely on notices, since
// uncovered nodes would never apply them). A subset
// barrier's notices would never reach non-participant copy holders, and an
// explicit flush (FlushRelease, id < 0) has no arrival at all — its
// invalidations must complete inside the flush, or a crash between the
// flush-backed checkpoint and the node's next barrier arrival would strand
// the queued notices forever (restart wipes the node's state, the
// checkpoint skips the redo, and third-party copies stay stale for good).
func (d *DSM) NoticesUsable(barrier int) bool {
	if barrier < 0 || barrier >= len(d.barriers) {
		return false
	}
	return d.barriers[barrier].n >= d.rt.Nodes()
}

// QueueWriteNotice records that t's node committed writes to pg during the
// epoch ending at the given barrier; that barrier's arrival piggybacks the
// notice and its release distributes it to every participant. Queue only
// for barriers NoticesUsable approved.
func (d *DSM) QueueWriteNotice(t *pm2.Thread, barrier int, pg Page) {
	ns := d.state[t.Node()]
	if ns.notices == nil {
		ns.notices = make(map[int][]WriteNotice)
	}
	ns.notices[barrier] = append(ns.notices[barrier], WriteNotice{Page: pg, Writer: t.Node()})
	d.stats.Notices++
}

// takeNotices drains the write notices a node queued for one barrier, in
// canonical order (page, then writer), deduplicated.
func (d *DSM) takeNotices(node, barrier int) []WriteNotice {
	ns := d.state[node]
	out := ns.notices[barrier]
	if len(out) == 0 {
		return nil
	}
	delete(ns.notices, barrier)
	return canonicalNotices(out)
}

// canonicalNotices sorts notices by (page, writer) and removes duplicates,
// so the aggregate a barrier distributes is independent of arrival order.
func canonicalNotices(ws []WriteNotice) []WriteNotice {
	slices.SortFunc(ws, func(x, y WriteNotice) int {
		if x.Page != y.Page {
			return cmp.Compare(x.Page, y.Page)
		}
		return cmp.Compare(x.Writer, y.Writer)
	})
	out := ws[:0]
	for i, w := range ws {
		if i > 0 && w == ws[i-1] {
			continue
		}
		out = append(out, w)
	}
	return out
}

// applyNotices runs on every barrier participant after the barrier
// completed: notices arrive in canonical order, grouped by page here, and
// each group is applied locally (no messages — this is the whole point).
func (d *DSM) applyNotices(t *pm2.Thread, notices []WriteNotice) {
	for i := 0; i < len(notices); {
		j := i
		for j < len(notices) && notices[j].Page == notices[i].Page {
			j++
		}
		d.applyNotice(t, notices[i].Page, notices[i:j])
		i = j
	}
}

// applyNotice applies one page's write notices on t's node:
//
//   - at the page's home, nothing changes: the reference copy is already
//     current, and the copyset deliberately stays as-is. It only ever
//     needs to be a SUPERSET of the actual holders — members that drop
//     their copies at this barrier just become harmless stale entries a
//     later (idempotent) invalidation or notice covers. Pruning here would
//     race with readers that received their grant earlier, refetched, and
//     re-joined the copyset: removing such a reader would strand its live
//     copy outside every future invalidation.
//   - elsewhere, a sole local writer keeps its copy (it is the freshest
//     replica and the home has its diffs); any other node runs the
//     protocol's own InvalidateServer, exactly as an arriving eager
//     invalidation would — so a concurrently dirty twin (another local
//     thread writing inside a critical section) is flushed home, not
//     silently discarded — with InvalSeq bumped first so an install still
//     in flight is retired too.
func (d *DSM) applyNotice(t *pm2.Thread, pg Page, ws []WriteNotice) {
	node := t.Node()
	e := d.Entry(node, pg)
	e.Lock(t)
	if e.Home == node {
		e.Unlock(t)
		return
	}
	if len(ws) == 1 && ws[0].Writer == node {
		e.Unlock(t)
		return
	}
	e.InvalSeq++
	e.Unlock(t)
	iv := d.newInvalidate(node, pg, -1, nil)
	iv.DSM, iv.Thread, iv.Node, iv.From = d, t, node, ws[0].Writer
	d.instance(e.proto).InvalidateServer(iv)
	put(d, &d.recs.invs, iv)
}
