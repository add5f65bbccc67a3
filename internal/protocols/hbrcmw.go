package protocols

import (
	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

// hbrcMW implements home-based release consistency with multiple writers
// (Section 3.2), using the classical twinning technique of Keleher et al.:
// each page has a home node holding the reference copy; writers fetch a copy,
// twin it before the first write, and at release send the diff between the
// current copy and the twin to the home. The home applies the diffs and
// then invalidates third-party copies; an invalidated node that has pending
// modifications of its own flushes its diff back to the home before dropping
// the page (exactly the paper's description).
//
// Home-node writes are detected the same way as everyone else's: pages are
// write-protected at their home between critical sections (see InitPage), so
// the first home-side write faults, twins locally and marks the page dirty.
type hbrcMW struct {
	d     *core.DSM
	dirty []map[core.Page]bool
}

func newHbrcMW(d *core.DSM) *hbrcMW {
	p := &hbrcMW{d: d}
	for i := 0; i < d.Runtime().Nodes(); i++ {
		p.dirty = append(p.dirty, make(map[core.Page]bool))
	}
	return p
}

// Name implements core.Protocol.
func (p *hbrcMW) Name() string { return "hbrc_mw" }

// InitPage write-protects the page on its home so home writes are tracked.
func (p *hbrcMW) InitPage(pg core.Page, home int) {
	p.d.Space(home).SetAccess(pg, memory.ReadOnly)
}

// ReadFaultHandler fetches a read-only copy from the home node. At the home
// itself a read never faults (the home always holds the reference copy).
func (p *hbrcMW) ReadFaultHandler(f *core.Fault) { core.FetchPage(f, false) }

// WriteFaultHandler enables local writing: if the node already holds a copy
// (including the home's reference copy) it is twinned in place and upgraded
// to read-write; otherwise a copy is fetched from the home first. Either
// way the page is marked dirty for the next release.
func (p *hbrcMW) WriteFaultHandler(f *core.Fault) {
	e, t := f.Entry, f.Thread
	space := p.d.Space(f.Node)
	e.Lock(t)
	if space.AccessOf(f.Page) >= memory.ReadOnly {
		core.EnsureTwin(p.d, f.Node, e)
		space.SetAccess(f.Page, memory.ReadWrite)
		p.dirty[f.Node][f.Page] = true
		f.KeepEntryLocked()
		return
	}
	e.Unlock(t)
	core.FetchPage(f, true) // returns with the entry lock held
	if space.AccessOf(f.Page) == memory.ReadWrite {
		core.EnsureTwin(p.d, f.Node, e)
		p.dirty[f.Node][f.Page] = true
	}
}

// ReadServer runs at the home: add the requester to the copyset and ship a
// read-only copy. The home never forwards — the manager is fixed.
func (p *hbrcMW) ReadServer(r *core.Request) {
	p.serveCopy(r, memory.ReadOnly)
}

// WriteServer runs at the home: multiple writers are allowed, so the home
// ships a read-write copy without transferring ownership and remembers the
// writer in the copyset.
func (p *hbrcMW) WriteServer(r *core.Request) {
	p.serveCopy(r, memory.ReadWrite)
}

func (p *hbrcMW) serveCopy(r *core.Request, access memory.Access) {
	e := p.d.Entry(r.Node, r.Page)
	e.Lock(r.Thread)
	if r.Node != e.Home {
		panic("hbrc_mw: page request did not reach the home node")
	}
	e.AddCopyset(r.From)
	core.SendPage(r, e, r.From, access, false, core.NodeSet{})
	e.Unlock(r.Thread)
}

// twinBeforeInstall is not needed: the writer twins after installation,
// before its first write, under the entry lock held through the fault path.

// InvalidateServer handles the home's third-party invalidation: if this node
// has pending modifications (a twin with changes), their diff is flushed to
// the home before the copy is dropped.
func (p *hbrcMW) InvalidateServer(iv *core.Invalidate) {
	e := p.d.Entry(iv.Node, iv.Page)
	e.Lock(iv.Thread)
	diff := core.TwinDiff(p.d, iv.Node, e)
	p.d.Space(iv.Node).Drop(iv.Page)
	delete(p.dirty[iv.Node], iv.Page)
	e.Unlock(iv.Thread)
	if diff != nil {
		// Fire-and-forget: the home is currently blocked waiting for
		// this very acknowledgement, so waiting here would deadlock;
		// the diff message is ordered before the ack on the same
		// channel pair anyway.
		core.SendDiffsHome(p.d, iv.Thread, e.Home, []*memory.Diff{diff}, false)
	}
}

// ReceivePageServer installs the arriving copy.
func (p *hbrcMW) ReceivePageServer(pm *core.PageMsg) { core.InstallPage(pm) }

// LockAcquire is a no-op: the home eagerly invalidated stale copies when the
// previous releaser's diffs arrived, so an acquirer re-faults and refetches
// fresh copies on demand.
func (p *hbrcMW) LockAcquire(*core.SyncEvent) {}

// LockRelease computes the diffs of every page written since the last
// release, sends them to the home nodes (blocking until applied), and
// write-protects the local copies again so later writes re-twin.
//
// Everything leaves through one outbox: the diffs bound for one home and the
// invalidations of home-side writes coalesce into a single envelope per
// destination, flushed in canonical order with one wait at the end. At a
// cluster-wide barrier no invalidation travels at all — the dirty pages
// become write notices piggybacked on the barrier, and every participant
// drops its stale copies when the barrier releases (TreadMarks-style
// aggregation).
func (p *hbrcMW) LockRelease(s *core.SyncEvent) {
	node := s.Node
	var buf [sweepPages]core.Page
	b := p.d.NewBatch(s.Thread)
	useNotices := s.Barrier && p.d.NoticesUsable(s.Lock)
	for _, pg := range dirtyPages(buf[:0], p.dirty[node]) {
		delete(p.dirty[node], pg)
		e := p.d.Entry(node, pg)
		e.Lock(s.Thread)
		diff := core.TwinDiff(p.d, node, e)
		p.d.Space(node).SetAccess(pg, memory.ReadOnly)
		if diff == nil {
			e.Unlock(s.Thread)
			continue
		}
		if e.Home == node {
			// Writes at the home are already in the reference copy; the
			// remote copies must go — eagerly, or via a barrier notice.
			// No copies, no notice: the copyset stays in place (a late
			// fetch may still join it) and the barrier prunes it.
			if useNotices {
				empty := e.Copyset.Empty()
				e.Unlock(s.Thread)
				if !empty {
					p.d.QueueWriteNotice(s.Thread, s.Lock, pg)
				}
				continue
			}
			cs := e.TakeCopyset()
			e.Unlock(s.Thread)
			cs.ForEach(func(n int) { b.Invalidate(n, pg, -1) })
			continue
		}
		e.Unlock(s.Thread)
		b.Diff(e.Home, diff, useNotices)
		if useNotices {
			p.d.QueueWriteNotice(s.Thread, s.Lock, pg)
		}
	}
	b.Flush(true)
}

// DiffServer runs at the home: apply the writer's diffs to the reference
// copy, then invalidate every other copy — all pages' invalidations through
// one outbox, one envelope per holder; invalidated writers flush their own
// diffs back (handled by InvalidateServer above). Noticed diffs skip the
// eager invalidation entirely: the writer queued barrier write notices and
// the stale copies drop themselves at the barrier.
func (p *hbrcMW) DiffServer(dm *core.DiffMsg) {
	core.ApplyDiffs(dm)
	if dm.Noticed {
		return
	}
	b := p.d.NewBatch(dm.Thread)
	for _, df := range dm.Diffs {
		e := p.d.Entry(dm.Node, df.Page)
		e.Lock(dm.Thread)
		if e.Copyset.Len() == 1 && e.InCopyset(dm.From) {
			e.Unlock(dm.Thread) // the sender holds the only copy, and keeps it
			continue
		}
		cs := e.TakeCopyset()
		cs.ForEach(func(n int) {
			if n == dm.From {
				e.AddCopyset(n) // the sender keeps its copy
			} else {
				b.Invalidate(n, df.Page, -1)
			}
		})
		e.Unlock(dm.Thread)
	}
	b.Flush(true)
}
