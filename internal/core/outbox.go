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
	elems   []pm2.VecElem // the envelope being built
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
// notices. A queued diff is the DSM's: the caller must not touch it again,
// and the home frees it once its DiffServer returns.
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
		if b.d.NodeDead(dest) {
			b.reroute(run)
		} else if !yield(dest, run) {
			return
		}
	}
}

// reroute delivers a run's diffs, and the sender's hold on them, to their
// pages' current homes.
func (b *Batch) reroute(run []batchOp) {
	for _, op := range run {
		if op.diff != nil {
			b.d.rerouteDiff(b.t, op.diff)
		}
	}
}

// release lets go of the sender's hold on a run's diffs once nothing can
// send them again.
func (b *Batch) release(run []batchOp) {
	for _, op := range run {
		if op.diff != nil {
			FreeDiff(b.d, op.diff)
		}
	}
}

// batchFlight is one awaited destination envelope of a flush.
type batchFlight struct {
	run  []batchOp // the destination's operations
	acks int       // invalidations whose acknowledgement the reply coalesces
	call *pm2.VecCall
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
	put(&d.recs.batches, b)
}

// send ships each destination's run as one multi-part envelope whose single
// reply coalesces every acknowledgement.
func (b *Batch) send(wait bool) {
	d := b.d
	for dest, run := range b.liveRuns {
		acks, diffBytes := b.envelope(run)
		d.stats.DiffBytes += diffBytes
		if wait {
			call := d.rt.StartVecFrom(b.node, dest, b.elems, ctrlBytes)
			d.watch(call.Reply(), b.node, dest, NodeSet{})
			b.flights = append(b.flights, batchFlight{run: run, acks: acks, call: call})
		} else {
			d.rt.AsyncVecFrom(b.node, dest, b.elems)
			b.release(run)
		}
	}
	for i := range b.flights {
		b.waitFlight(&b.flights[i])
	}
}

// envelope builds run's envelope in b.elems, counted as shipped, from fresh
// records that each hold their diff: the receiver frees what it is sent. It
// returns how many of the elements are invalidations, and the bytes of the
// diffs.
func (b *Batch) envelope(run []batchOp) (acks int, diffBytes int64) {
	d := b.d
	b.elems = b.elems[:0]
	for _, op := range run {
		if op.diff == nil {
			b.elems = append(b.elems, pm2.VecElem{Svc: d.svc.invald, Size: ctrlBytes,
				Arg: d.newInvalidate(b.node, op.page, op.newOwner, nil)})
			acks++
			continue
		}
		dm := take(&d.recs.diffMsgs)
		dm.From, dm.Noticed, dm.one[0] = b.node, op.noticed, op.diff
		dm.Diffs = dm.one[:]
		op.diff.Refs++
		size := ctrlBytes + op.diff.Size()
		b.elems = append(b.elems, pm2.VecElem{Svc: d.svc.diff, Size: size, Arg: dm})
		diffBytes += int64(size)
	}
	st := &d.stats
	st.Invalidations += int64(acks)
	st.DiffsSent += int64(len(b.elems) - acks)
	st.Sends += int64(len(b.elems))
	st.Envelopes++
	return acks, diffBytes
}

// waitFlight blocks until one destination's envelope is fully processed.
// A destination that dies first ends the wait at its crash: it needs no
// invalidations, and its diffs are re-routed to the pages' current homes. The abandoned call, never released, keeps a late
// reply to itself.
func (b *Batch) waitFlight(f *batchFlight) {
	d := b.d
	if _, ok := d.await(b.t, f.call.Reply()); !ok {
		b.reroute(f.run)
		return
	}
	f.call.Release()
	d.stats.InvAcks += int64(f.acks)
	b.release(f.run)
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

// takeNotices drains the write notices a node queued for one barrier into
// buf's storage, in canonical order (page, then writer), deduplicated. The
// node keeps its emptied list for the next epoch.
func (d *DSM) takeNotices(node, barrier int, buf []WriteNotice) []WriteNotice {
	ns := d.state[node]
	queued := ns.notices[barrier]
	if len(queued) == 0 {
		return buf[:0]
	}
	ns.notices[barrier] = queued[:0]
	return append(buf[:0], canonicalNotices(queued)...)
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
//   - a node with neither an entry nor a frame for the page never touched
//     it, so there is nothing to drop, and it makes no entry to learn that.
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
	if ns := d.state[node]; ns.entry(pg) == nil && ns.space.Frame(pg) == nil {
		return // never touched here: no copy, twin or fetch to retire
	}
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
	put(&d.recs.invs, iv)
}
