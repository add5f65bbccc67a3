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
// the first home-side write faults and marks the page dirty. The home writes
// straight into the reference copy, as in HLRC: it twins only while another
// node may hold a copy — at the fault if the copyset is non-empty, else when
// it first serves one — and its release compares with that twin only to
// decide whether those copies must go.
type hbrcMW struct {
	core.StandardInstall
	d *core.DSM
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

// WriteFaultHandler twins the page before the write — in place when the
// node holds a copy, after fetching one from the home otherwise — and marks
// it dirty for the next release. The home twins only if its copyset is
// non-empty.
func (p *hbrcMW) WriteFaultHandler(f *core.Fault) { core.TwinOnWrite(f, true) }

// ReadServer runs at the home: add the requester to the copyset and ship a
// read-only copy, twinning a page the home is writing untwinned. The home
// never forwards — the manager is fixed.
func (p *hbrcMW) ReadServer(r *core.Request) { core.ServeTwinnedHomeCopy(r, memory.ReadOnly) }

// WriteServer runs at the home: multiple writers are allowed, so the home
// ships a read-write copy without transferring ownership and remembers the
// writer in the copyset, twinning as ReadServer does.
func (p *hbrcMW) WriteServer(r *core.Request) { core.ServeTwinnedHomeCopy(r, memory.ReadWrite) }

// InvalidateServer handles the home's third-party invalidation: if this node
// has pending modifications (a twin with changes), their diff is flushed to
// the home before the copy is dropped.
func (p *hbrcMW) InvalidateServer(iv *core.Invalidate) { core.FlushAndDrop(iv) }

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
	b := p.d.NewBatch(s.Thread)
	useNotices := s.Barrier && p.d.NoticesUsable(s.Lock)
	pl := p.d.NewPageList()
	pl.Pages = p.d.DirtyPages(p, node, pl.Pages)
	for _, pg := range pl.Pages {
		p.d.ClearDirty(node, pg)
		e := p.d.Entry(node, pg)
		e.Lock(s.Thread)
		// Writes at the home are already in the reference copy, so its
		// twin is compared, not diffed — and only against copies to revoke:
		// with none, the twin goes unread and the copyset stays in place
		// (a late fetch may still join it; the barrier prunes it).
		var diff *memory.Diff
		var changed bool
		switch {
		case e.Home != node:
			diff = core.TwinDiff(p.d, node, e)
			changed = diff != nil
		case e.Copyset.Empty():
			core.DropTwin(p.d, e)
		default:
			changed = core.TwinChanged(p.d, node, e)
		}
		p.d.Space(node).SetAccess(pg, memory.ReadOnly)
		if !changed {
			e.Unlock(s.Thread)
			continue
		}
		if e.Home == node {
			// The remote copies must go — eagerly, or via a barrier notice.
			if useNotices {
				e.Unlock(s.Thread)
				p.d.QueueWriteNotice(s.Thread, s.Lock, pg)
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
	p.d.FreePageList(pl)
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
