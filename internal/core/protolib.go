package core

import (
	"bytes"
	"fmt"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
)

// This file is the DSM protocol library layer (Figure 1): thread-safe
// routines to perform the elementary actions protocols are composed of —
// bringing a copy of a remote page to a thread, migrating a thread to remote
// data, invalidating the copies of a page, serving pages, and the twin/diff
// machinery. Protocols at the policy layer combine these; "most (if not
// all!) subtle synchronization problems are already addressed by the core
// routines".

// FetchPage brings a copy of f.Page to the faulting node with at least the
// requested access, blocking f.Thread until the page is installed. If
// several threads on the node fault on the same page concurrently, only one
// request is sent and the rest wait on the entry (thread-level coalescing).
//
// On return the entry lock is held and handed to the core's retry path via
// f.KeepEntryLocked, so the faulting access completes before competing
// servers can take the page away. FetchPage does not guarantee the retried
// access succeeds (an in-flight fetch may have granted a weaker right than
// this fault needs); the core then faults again.
func FetchPage(f *Fault, write bool) {
	d, t, e := f.DSM, f.Thread, f.Entry
	space := &d.state[f.Node].space
	e.Lock(t)
	for {
		if space.AccessOf(f.Page).Allows(write) {
			f.KeepEntryLocked()
			return // another thread already brought the page
		}
		if e.Pending {
			e.Wait(t) // coalesce with the fetch in flight
			continue
		}
		break
	}
	e.Pending = true
	for {
		// The first request, or our fetch sent again after a crash: to the
		// probable owner, which the recovery sweep repaired, with a bumped
		// sequence number that retires any late response to an earlier one.
		e.pendingSeq = e.InvalSeq
		e.reqSeq++
		seq, dest := e.reqSeq, e.ProbOwner
		e.Unlock(t)
		d.profFetch(f.Node, f.Page, dest)
		d.sendRequest(f.Node, dest, d.newRequest(f.Node, f.Page, f.Node, write, seq, f.Timing))
		e.Lock(t)
		// Wait for the page, or for a crash to strand our request
		// (scrubEntries, strandDropped); another thread's is its own to send.
		for e.Pending && (e.reqSeq != seq || e.reqAt != reqStranded) {
			e.Wait(t)
		}
		if !e.Pending {
			break
		}
	}
	f.KeepEntryLocked()
}

// newRequest takes a request record on node sender and fills in what the
// requester knows; the serving handler completes and frees it.
func (d *DSM) newRequest(sender int, pg Page, from int, write bool, seq uint64, ft *FaultTiming) *Request {
	r := take(&d.recs.requests)
	r.Page, r.From, r.Write, r.Seq, r.Timing = pg, from, write, seq, ft
	if ft != nil {
		r.ftSeq = ft.seq
	}
	return r
}

// ServeWhenOwner blocks a server thread until this node owns r.Page,
// following in-flight ownership transfers. It returns with the entry lock
// held and true if the node is the owner; if the node is not the owner and
// no transfer is pending, it returns false with the lock held and the caller
// should forward the request along the probable-owner chain.
func ServeWhenOwner(r *Request) (e *Entry, owner bool) {
	d, t := r.DSM, r.Thread
	e = d.Entry(r.Node, r.Page)
	e.Lock(t)
	for !e.Owner && e.Pending {
		e.Wait(t)
	}
	return e, e.Owner
}

// ServeReadCopy is the owner read server of the owner-based protocols
// (li_hudak, erc_sw, hybrid, the managed li variants): the owner adds the
// requester to the copyset, downgrades its own right to read (MRSW: readers
// exclude writers) and ships a read-only copy; a non-owner forwards the
// request along its probable-owner hint.
func ServeReadCopy(r *Request) {
	e, owner := ServeWhenOwner(r)
	if !owner {
		ForwardRequest(r, e)
		return
	}
	e.AddCopyset(r.From)
	r.DSM.state[r.Node].space.SetAccess(r.Page, memory.ReadOnly)
	SendPage(r, e, r.From, memory.ReadOnly, false, NodeSet{})
	e.Unlock(r.Thread)
}

// ServeHomeCopy is the page server of the home-based protocols (hbrc_mw,
// entry_mw, java): the home adds the requester to the copyset and ships a
// copy granting access, keeping ownership. The manager is fixed, so a
// request always reaches the home and is never forwarded.
func ServeHomeCopy(r *Request, access memory.Access) { serveHomeCopy(r, access, false) }

// ServeTwinnedHomeCopy is ServeHomeCopy for a home that judges its copies
// against a twin at release (hbrc_mw): a page the home is writing untwinned
// (see TwinOnWrite) is twinned before the copy ships, so the release revokes
// the copy only if the page changed after it was served.
func ServeTwinnedHomeCopy(r *Request, access memory.Access) { serveHomeCopy(r, access, true) }

func serveHomeCopy(r *Request, access memory.Access, twin bool) {
	d := r.DSM
	e := d.Entry(r.Node, r.Page)
	e.Lock(r.Thread)
	if r.Node != e.Home {
		panic(fmt.Sprintf("core: %s: page request did not reach the home node (page %d at node %d, home %d)",
			d.RegistryName(e.proto), r.Page, r.Node, e.Home))
	}
	if twin && d.state[r.Node].space.AccessOf(r.Page) == memory.ReadWrite {
		EnsureTwin(d, r.Node, e)
	}
	e.AddCopyset(r.From)
	SendPage(r, e, r.From, access, false, NodeSet{})
	e.Unlock(r.Thread)
}

// ForwardRequest re-sends the request along the probable-owner chain
// (dynamic distributed manager). Call with the entry lock held; it is
// released before sending.
func ForwardRequest(r *Request, e *Entry) {
	dest := e.ProbOwner
	e.Unlock(r.Thread)
	ForwardRequestTo(r, dest)
}

// ForwardRequestTo re-sends the request to an explicit destination (managed
// schemes: the manager relays to the recorded owner) as a fresh record — r
// stays this node's to free. The copy keeps r.Seq, so the requester's
// recovery check recognizes the page the forward eventually brings, and r's
// timing while its fault still owns it. The entry lock must already be
// released.
func ForwardRequestTo(r *Request, dest int) {
	d := r.DSM
	d.sendRequest(r.Node, dest, d.newRequest(r.Node, r.Page, r.From, r.Write, r.Seq, liveTiming(r.Timing, r.ftSeq)))
}

// SendPage ships this node's copy of pg to dest, granting the given access.
// If ownship is true, page ownership (and the copyset) transfer with the
// page. Charges the owner-side request-processing cost on this node's CPU.
// Call with the entry lock held.
func SendPage(r *Request, e *Entry, dest int, access memory.Access, ownship bool, copyset NodeSet) {
	d, t := r.DSM, r.Thread
	t.Compute(d.costs.Server)
	if ft := liveTiming(r.Timing, r.ftSeq); ft != nil {
		ft.Server = d.costs.Server
	}
	d.trackRequest(r, reqServed)
	frame := d.state[r.Node].space.Frame(e.Page)
	if frame == nil {
		panic(fmt.Sprintf("core: SendPage on node %d without a copy of page %d (request from %d)",
			r.Node, e.Page, r.From))
	}
	// The wire copy is pooled; the installer returns it once installed.
	data := d.bufs.Get()
	copy(data, frame.Data)
	owner := r.Node
	if ownship {
		owner = dest
	}
	pm := take(&d.recs.pages)
	pm.Page, pm.From, pm.Data, pm.Access, pm.Owner, pm.Ownship = e.Page, r.Node, data, access, owner, ownship
	pm.Copyset, pm.Seq, pm.Timing, pm.ftSeq = copyset.AppendTo(nil), r.Seq, r.Timing, r.ftSeq
	d.sendPage(r.Node, dest, pm)
}

// InvalidateCopies sends invalidations for pg to every node in copyset
// except self, newOwner and the dead, and blocks until all of them
// acknowledge. The entry lock must NOT be held: invalidated nodes may need it.
//
// Each ack names its holder and arrives on the round's own queue, which a
// crash of a holder still awaited wakes with peerDead (see watch): a dead
// holder's copies died with it. The queue comes from a pool and goes back
// only when the round ended on acks alone, empty; a round that took a
// peerDead abandons it, since an ack the dead holder sent before its crash
// may still land there.
func InvalidateCopies(d *DSM, t *pm2.Thread, pg Page, copyset NodeSet, newOwner int) {
	ack := take(&d.recs.acks)
	var outstanding NodeSet
	copyset.ForEach(func(n int) {
		if n != t.Node() && n != newOwner && !d.NodeDead(n) {
			d.sendInvalidate(t.Node(), n, pg, newOwner, ack)
			outstanding.Add(n)
		}
	})
	d.watch(ack, t.Node(), -1, outstanding)
	clean := true
	for !outstanding.Empty() {
		switch v := ack.Recv(t.Proc()).(type) {
		case int:
			if outstanding.Contains(v) {
				outstanding.Remove(v)
				d.stats.InvAcks++
			}
		case peerDead:
			outstanding.Remove(v.node)
			clean = false
		}
	}
	d.unwatch(ack)
	if clean && ack.Len() == 0 {
		d.recs.acks.Put(ack)
	}
}

// DropCopy invalidates the local copy of pg: the frame is discarded, rights
// revert to no-access, and the probable owner is redirected at hint (if
// >= 0). This is the standard body of an InvalidateServer hook.
func DropCopy(iv *Invalidate) {
	d, t := iv.DSM, iv.Thread
	e := d.Entry(iv.Node, iv.Page)
	e.Lock(t)
	d.state[iv.Node].space.Drop(iv.Page)
	e.Owner = false
	if iv.NewOwner >= 0 {
		e.ProbOwner = iv.NewOwner
	}
	e.Unlock(t)
}

// FlushAndDrop is the invalidation server of the home-based protocols: the
// node's pending modifications of the page — the recorded diff (java), else
// the twin diff (hbrc_mw, entry_mw) — are flushed to the home, and the copy
// and its dirty mark are dropped.
func FlushAndDrop(iv *Invalidate) {
	d, t := iv.DSM, iv.Thread
	e := d.Entry(iv.Node, iv.Page)
	e.Lock(t)
	diff := TakeRecorded(e)
	if diff == nil {
		diff = TwinDiff(d, iv.Node, e)
	}
	d.state[iv.Node].space.Drop(iv.Page)
	d.ClearDirty(iv.Node, iv.Page)
	e.Unlock(t)
	if diff != nil {
		// Fire-and-forget: the invalidating home may be blocked waiting
		// for this very acknowledgement, so waiting here could deadlock;
		// the diff is ordered before the ack on the same channel pair.
		SendDiffsHome(d, t, e.Home, diff, false)
	}
}

// MigrateToOwner implements the fault action of migration-based protocols:
// charge the (tiny) handler overhead, then migrate the faulting thread to
// the page's probable owner; the access is retried there. This is the whole
// fault handler of the migrate_thread protocol — "essentially a single
// function: the thread migration primitive provided by PM2".
func MigrateToOwner(f *Fault) {
	d, t := f.DSM, f.Thread
	t.Advance(d.costs.MigOverhead)
	if f.Timing != nil {
		f.Timing.Overhead = d.costs.MigOverhead
	}
	e := f.Entry
	e.Lock(t)
	dest := e.ProbOwner
	e.Unlock(t)
	start := t.Now()
	t.MigrateTo(dest)
	if f.Timing != nil {
		f.Timing.Migration = t.Now().Sub(start)
	}
	d.stats.Migrations++
}

// twinData is the ProtoData payload used by multiple-writer protocols.
type twinData struct {
	twin  []byte
	dirty *memory.Diff // on-the-fly recorded diff (java protocols)
}

// EnsureTwin creates a twin (pristine copy) of the local page if none
// exists. Call with the entry lock held and a frame present.
func EnsureTwin(d *DSM, node int, e *Entry) {
	td, _ := e.ProtoData.(*twinData)
	if td == nil {
		td = &twinData{}
		e.ProtoData = td
	}
	if td.twin == nil {
		frame := d.state[node].space.Frame(e.Page)
		if frame == nil {
			panic("core: EnsureTwin without a local copy")
		}
		td.twin = d.bufs.MakeTwin(frame.Data)
	}
}

// HasTwin reports whether the entry currently holds a twin.
func HasTwin(e *Entry) bool {
	td, _ := e.ProtoData.(*twinData)
	return td != nil && td.twin != nil
}

// hasRecorded reports whether the entry holds a non-empty recorded diff.
func hasRecorded(e *Entry) bool {
	td, _ := e.ProtoData.(*twinData)
	return td != nil && td.dirty != nil && !td.dirty.Empty()
}

// TwinOnWrite is the write fault handler of the twinning multiple-writer
// protocols (hbrc_mw, entry_mw): a node already holding a copy upgrades it to
// read-write in place; otherwise a writable copy is fetched first. Either way
// the page is marked dirty for the next release, and a copy away from the
// home is twinned before the retried write, for the release's diff.
//
// The home writes straight into the reference copy, so it needs a twin only
// to judge at release whether the copies elsewhere must be revoked: it twins
// when judge is set and the copyset is non-empty. A copy served later is
// twinned for by ServeTwinnedHomeCopy.
func TwinOnWrite(f *Fault, judge bool) {
	d, e, t := f.DSM, f.Entry, f.Thread
	space := &d.state[f.Node].space
	e.Lock(t)
	if space.AccessOf(f.Page) >= memory.ReadOnly {
		twinForWrite(d, f.Node, e, judge)
		space.SetAccess(f.Page, memory.ReadWrite)
		d.MarkDirty(f.Node, f.Page)
		f.KeepEntryLocked()
		return
	}
	e.Unlock(t)
	FetchPage(f, true) // returns with the entry lock held
	if space.AccessOf(f.Page) == memory.ReadWrite {
		twinForWrite(d, f.Node, e, judge)
		d.MarkDirty(f.Node, f.Page)
	}
}

// twinForWrite applies TwinOnWrite's twinning rule to node's copy of e's page.
func twinForWrite(d *DSM, node int, e *Entry, judge bool) {
	if node != e.Home || judge && !e.Copyset.Empty() {
		EnsureTwin(d, node, e)
	}
}

// TwinDiff computes the diff of the local page against its twin and discards
// the twin. Returns nil if there is no twin or no modification. Call with
// the entry lock held. The diff is a pooled record (see NewDiff).
func TwinDiff(d *DSM, node int, e *Entry) *memory.Diff {
	td, _ := e.ProtoData.(*twinData)
	if td == nil || td.twin == nil {
		return nil
	}
	var diff *memory.Diff
	if frame := d.state[node].space.Frame(e.Page); frame != nil && !bytes.Equal(td.twin, frame.Data) {
		diff = NewDiff(d)
		diff.Compute(e.Page, td.twin, frame.Data, d.costs.DiffGap)
	}
	DropTwin(d, e)
	return diff
}

// TwinChanged reports whether the local page differs from its twin and
// discards the twin, taking no diff record: a home's release needs no more,
// as its writes are already in the reference copy. Call with the entry lock held.
func TwinChanged(d *DSM, node int, e *Entry) bool {
	td, _ := e.ProtoData.(*twinData)
	if td == nil || td.twin == nil {
		return false
	}
	frame := d.state[node].space.Frame(e.Page)
	changed := frame != nil && !bytes.Equal(td.twin, frame.Data)
	DropTwin(d, e)
	return changed
}

// DropTwin discards the entry's twin, if any, into d's pool without comparing
// it: a home whose copyset is empty has nothing to judge. Call with the entry
// lock held.
func DropTwin(d *DSM, e *Entry) {
	if td, _ := e.ProtoData.(*twinData); td != nil && td.twin != nil {
		d.bufs.Put(td.twin)
		td.twin = nil
	}
}

// resetProtoData clears e's protocol-private state, handing a twin and a
// recorded diff back to d's pools rather than to the collector.
func resetProtoData(d *DSM, e *Entry) {
	DropTwin(d, e)
	if td, _ := e.ProtoData.(*twinData); td != nil && td.dirty != nil {
		FreeDiff(d, td.dirty)
	}
	e.ProtoData = nil
}

// NewDiff takes an empty diff record from d's pool, for a routine that builds
// a diff to send. Batch.Diff and SendDiffsHome hand it to the DSM, which
// frees it once the home's DiffServer returns and the sender has its ack; a
// routine that drops a diff instead of sending it frees it with FreeDiff.
func NewDiff(d *DSM) *memory.Diff { return (*memory.Diff)(take(&d.recs.diffs)) }

// FreeDiff lets go of df: the last of its holders (see diffRec) sends it
// back to d's pool for the next NewDiff. The caller must not touch it again.
func FreeDiff(d *DSM, df *memory.Diff) {
	if df.Refs > 0 {
		df.Refs--
		return
	}
	put(&d.recs.diffs, (*diffRec)(df))
}

// RecordPut appends an on-the-fly diff entry for a write of buf at addr
// (field-granularity recording through the put primitive). Call with the
// entry lock held. The recorded diff is a pooled record (see NewDiff).
func RecordPut(d *DSM, e *Entry, addr Addr, buf []byte) {
	td, _ := e.ProtoData.(*twinData)
	if td == nil {
		td = &twinData{}
		e.ProtoData = td
	}
	if td.dirty == nil {
		td.dirty = NewDiff(d)
		td.dirty.Page = e.Page
	}
	off := int(uint64(addr) % uint64(PageSize))
	td.dirty.MergeRecorded(off, buf)
}

// TakeRecorded removes and returns the on-the-fly recorded diff, or nil.
// Call with the entry lock held.
func TakeRecorded(e *Entry) *memory.Diff {
	td, _ := e.ProtoData.(*twinData)
	if td == nil || td.dirty == nil {
		return nil
	}
	diff := td.dirty
	td.dirty = nil
	if diff.Empty() {
		return nil
	}
	return diff
}

// SendDiffsHome ships df to dest and blocks until applied when wait is true
// (lock-release semantics require the home to have the modifications before
// the release completes). The diff becomes the DSM's: the caller must not
// touch it once SendDiffsHome returns.
func SendDiffsHome(d *DSM, t *pm2.Thread, dest int, df *memory.Diff, wait bool) {
	d.profDiff(t.Node(), df.Page)
	d.sendDiffs(t, dest, df, wait)
}

// Classification returns pg's sharing class and dominant writer from the
// profiler's last completed epoch (ClassIdle, -1 when the profiler is off or
// no epoch has closed). This is the toolbox hook protocols consume to pick a
// mechanism per page — the adaptive protocol switches between page fetching
// and thread migration on it, and every toolbox-composed protocol inherits
// the classifier-driven home placement for free, because FetchPage, the diff
// paths and the outbox feed the counters the classifier folds.
func Classification(d *DSM, pg Page) (PageClass, int) {
	return d.PageClassOf(pg)
}

// ApplyDiffs patches the local copies with arriving diffs; the standard body
// of a home node's DiffServer.
func ApplyDiffs(dm *DiffMsg) {
	d, t := dm.DSM, dm.Thread
	for _, df := range dm.Diffs {
		e := d.Entry(dm.Node, df.Page)
		e.Lock(t)
		frame := d.state[dm.Node].space.Frame(df.Page)
		if frame != nil {
			memory.ApplyDiff(frame.Data, df)
		}
		e.Unlock(t)
	}
}
