package core

import (
	"fmt"
	"sort"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
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
	space := d.state[f.Node].space
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
	e.pendingSeq = e.InvalSeq
	e.reqSeq++
	seq := e.reqSeq
	dest := e.ProbOwner
	e.Unlock(t)

	d.profFetch(f.Node, f.Page, dest)
	d.sendRequest(f.Node, dest, d.newRequest(f.Node, f.Page, f.Node, write, seq, f.Timing))

	e.Lock(t)
	if d.recovery == nil {
		for e.Pending {
			e.Wait(t)
		}
		f.KeepEntryLocked()
		return
	}
	// Recovery mode: bound each wait, and when the fetch we own is still
	// outstanding after a timeout, retry toward the current probable owner —
	// if the server died, the recovery sweep has redirected the hint to the
	// page's new home, and the bumped sequence number retires any late
	// response to the original request.
	attempt := 0
	for e.Pending {
		if e.WaitTimeout(t, d.recovery.retryDelay(attempt)) {
			continue
		}
		if !e.Pending || e.reqSeq != seq {
			continue // another thread's fetch owns the entry now
		}
		attempt++
		e.reqSeq++
		seq = e.reqSeq
		e.pendingSeq = e.InvalSeq
		dest = e.ProbOwner
		e.Unlock(t)
		d.recovery.stats.Retries++
		d.profFetch(f.Node, f.Page, dest)
		d.sendRequest(f.Node, dest, d.newRequest(f.Node, f.Page, f.Node, write, seq, f.Timing))
		e.Lock(t)
	}
	f.KeepEntryLocked()
}

// newRequest takes a request record on node sender and fills in what the
// requester knows; the serving handler completes and frees it.
func (d *DSM) newRequest(sender int, pg Page, from int, write bool, seq uint64, ft *FaultTiming) *Request {
	r := take(&d.recs.requests)
	r.Page, r.From, r.Write, r.Seq, r.Timing = pg, from, write, seq, ft
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
// stays this node's to free. The entry lock must already be released.
func ForwardRequestTo(r *Request, dest int) {
	d := r.DSM
	d.sendRequest(r.Node, dest, d.newRequest(r.Node, r.Page, r.From, r.Write, 0, r.Timing))
}

// SendPage ships this node's copy of pg to dest, granting the given access.
// If ownship is true, page ownership (and the copyset) transfer with the
// page. Charges the owner-side request-processing cost on this node's CPU.
// Call with the entry lock held.
func SendPage(r *Request, e *Entry, dest int, access memory.Access, ownship bool, copyset NodeSet) {
	d, t := r.DSM, r.Thread
	t.Compute(d.costs.Server)
	if r.Timing != nil {
		r.Timing.Server = d.costs.Server
	}
	frame := d.state[r.Node].space.Frame(e.Page)
	if frame == nil {
		panic(fmt.Sprintf("core: SendPage on node %d without a copy of page %d (request from %d)",
			r.Node, e.Page, r.From))
	}
	// The wire copy is pooled; InstallPage returns it once installed.
	data := d.bufs.Get()
	copy(data, frame.Data)
	owner := r.Node
	if ownship {
		owner = dest
	}
	pm := take(&d.recs.pages)
	pm.DSM = d // for CopyArg; the receiving handler completes the rest
	pm.Page, pm.From, pm.Data, pm.Access, pm.Owner, pm.Ownship = e.Page, r.Node, data, access, owner, ownship
	pm.Copyset, pm.Seq, pm.Timing = copyset.AppendTo(nil), r.Seq, r.Timing
	d.sendPage(r.Node, dest, pm)
}

// InstallPage copies an arriving page into the local frame, sets the granted
// access right, updates ownership hints, completes the pending fetch and
// wakes the waiting threads. Charges the requester-side installation cost.
// This is the standard body of a ReceivePageServer hook.
func InstallPage(pm *PageMsg) {
	d, t := pm.DSM, pm.Thread
	e := d.Entry(pm.Node, pm.Page)
	e.Lock(t)
	t.Compute(d.costs.Install)
	if pm.Timing != nil {
		pm.Timing.Install = d.costs.Install
	}
	if d.recovery != nil && (!e.Pending || (!pm.Ownship && pm.Seq != e.reqSeq)) {
		// A late response to a request that was since retried (or already
		// satisfied): its data may predate writes the current owner has
		// accepted. Discard it; the outstanding fetch, if any, stays
		// pending and its own response will complete it.
		d.bufs.Put(pm.Data)
		pm.Data = nil
		e.Unlock(t)
		return
	}
	if !pm.Ownship && e.InvalSeq != e.pendingSeq {
		// An invalidation overtook this copy in flight: the data is
		// stale and the home/owner no longer counts us as a holder.
		// Drop it and let the faulting threads refault and refetch.
		// Ownership transfers are exempt: the previous owner serialized
		// the granting write after any invalidation it sent us.
		d.bufs.Put(pm.Data)
		pm.Data = nil
		e.Pending = false
		e.Broadcast()
		e.Unlock(t)
		return
	}
	space := d.state[pm.Node].space
	frame := space.Ensure(pm.Page)
	copy(frame.Data, pm.Data)
	d.bufs.Put(pm.Data) // wire copy was pooled by SendPage; recycle it
	pm.Data = nil
	frame.Access = pm.Access
	e.ProbOwner = pm.Owner
	if pm.Ownship {
		e.Owner = true
		// The wire form stays a plain []int (sorted when it comes from
		// TakeCopyset, arbitrary from custom protocols); FromSlice sorts
		// and deduplicates while rebuilding the interval set.
		e.Copyset.FromSlice(pm.Copyset)
	}
	e.Pending = false
	e.Broadcast()
	e.Unlock(t)
}

// InvalidateCopies sends invalidations for pg to every node in copyset
// except self and newOwner, and blocks until all of them acknowledge.
// The entry lock must NOT be held: invalidated nodes may need it.
//
// The acks arrive on t's own reply queue: t has no Call outstanding while it
// invalidates, and exactly one ack per invalidation comes back, so the queue
// is empty again on return. With recovery enabled, dead holders are skipped,
// outstanding acks are tracked per node on a private queue (a retry's late
// duplicates must not reach t's next Call), and a timeout re-checks for
// crashes and re-sends to the remaining holders (invalidations are
// idempotent), so a holder dying mid-invalidation cannot wedge the writer
// forever.
func InvalidateCopies(d *DSM, t *pm2.Thread, pg Page, copyset NodeSet, newOwner int) {
	if d.recovery == nil {
		acks := 0
		ack := t.ReplyQueue()
		copyset.ForEach(func(n int) {
			if n == t.Node() || n == newOwner {
				return
			}
			d.sendInvalidate(t.Node(), n, pg, newOwner, ack)
			acks++
		})
		for i := 0; i < acks; i++ {
			ack.Recv(t.Proc())
			d.stats.InvAcks++
		}
		return
	}
	ack := new(sim.Chan)
	outstanding := make(map[int]bool)
	copyset.ForEach(func(n int) {
		if n == t.Node() || n == newOwner || d.NodeDead(n) {
			return
		}
		d.sendInvalidate(t.Node(), n, pg, newOwner, ack)
		outstanding[n] = true
	})
	attempt := 0
	for len(outstanding) > 0 {
		v, ok := ack.RecvTimeout(t.Proc(), d.recovery.retryDelay(attempt))
		if ok {
			if n, isAck := v.(int); isAck && outstanding[n] {
				delete(outstanding, n)
				d.stats.InvAcks++
			}
			continue
		}
		attempt++
		remaining := make([]int, 0, len(outstanding))
		for n := range outstanding {
			remaining = append(remaining, n)
		}
		sort.Ints(remaining)
		for _, n := range remaining {
			if d.NodeDead(n) {
				delete(outstanding, n)
				continue
			}
			d.recovery.stats.Retries++
			d.sendInvalidate(t.Node(), n, pg, newOwner, ack)
		}
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

// TwinDiff computes the diff of the local page against its twin and discards
// the twin. Returns nil if there is no twin or no modification. Call with
// the entry lock held.
func TwinDiff(d *DSM, node int, e *Entry) *memory.Diff {
	td, _ := e.ProtoData.(*twinData)
	if td == nil || td.twin == nil {
		return nil
	}
	frame := d.state[node].space.Frame(e.Page)
	if frame == nil {
		d.bufs.Put(td.twin)
		td.twin = nil
		return nil
	}
	diff := memory.ComputeDiff(e.Page, td.twin, frame.Data, d.costs.DiffGap)
	d.bufs.Put(td.twin) // twin came from the pool; recycle it
	td.twin = nil
	if diff.Empty() {
		return nil
	}
	return diff
}

// RecordPut appends an on-the-fly diff entry for a write of buf at addr
// (field-granularity recording through the put primitive). Call with the
// entry lock held.
func RecordPut(d *DSM, e *Entry, addr Addr, buf []byte) {
	td, _ := e.ProtoData.(*twinData)
	if td == nil {
		td = &twinData{}
		e.ProtoData = td
	}
	if td.dirty == nil {
		td.dirty = &memory.Diff{Page: e.Page}
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

// SendDiffsHome ships diffs to dest and blocks until applied when wait is
// true (lock-release semantics require the home to have the modifications
// before the release completes).
func SendDiffsHome(d *DSM, t *pm2.Thread, dest int, diffs []*memory.Diff, wait bool) {
	if len(diffs) == 0 {
		return
	}
	for _, df := range diffs {
		d.profDiff(t.Node(), df.Page)
	}
	d.sendDiffs(t, dest, diffs, wait)
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
