package protocols

import (
	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

// ercSW implements eager release consistency with an MRSW protocol
// (Section 3.2): page replication on read faults and page-plus-ownership
// migration on write faults, using the same dynamic distributed manager
// scheme as li_hudak — but copies are not invalidated when the write
// happens. Readers may keep (stale) copies for the duration of the writer's
// critical section; "pages in the copyset get invalidated on lock release",
// eagerly and with acknowledgements, which is what makes the release a
// release.
type ercSW struct {
	core.StandardInstall
	d *core.DSM
}

// Name implements core.Protocol.
func (p *ercSW) Name() string { return "erc_sw" }

// ReadFaultHandler brings a read copy from the owner.
func (p *ercSW) ReadFaultHandler(f *core.Fault) { core.FetchPage(f, false) }

// WriteFaultHandler brings the page with ownership and marks it dirty; the
// copyset it arrives with is invalidated at the next release.
func (p *ercSW) WriteFaultHandler(f *core.Fault) {
	core.FetchPage(f, true)
	// FetchPage returns with the entry lock held.
	p.d.MarkDirty(f.Node, f.Page)
}

// ReadServer grants a read copy, exactly like li_hudak.
func (p *ercSW) ReadServer(r *core.Request) { core.ServeReadCopy(r) }

// WriteServer transfers the page, write rights and ownership — and, unlike
// li_hudak, the copyset travels with the ownership instead of being
// invalidated: release consistency defers the invalidations to the release.
// The old owner keeps a read copy and joins the copyset.
func (p *ercSW) WriteServer(r *core.Request) {
	e, owner := core.ServeWhenOwner(r)
	if !owner {
		core.ForwardRequest(r, e)
		return
	}
	cs := e.TakeCopyset()
	cs.Add(r.Node)    // we stay behind as a reader
	cs.Remove(r.From) // the requester must not appear in its own copyset
	core.SendPage(r, e, r.From, memory.ReadWrite, true, cs)
	e.Owner = false
	e.ProbOwner = r.From
	p.d.Space(r.Node).SetAccess(r.Page, memory.ReadOnly)
	e.Unlock(r.Thread)
}

// InvalidateServer drops the local copy.
func (p *ercSW) InvalidateServer(iv *core.Invalidate) { core.DropCopy(iv) }

// LockAcquire is a no-op: erc_sw propagates eagerly at release.
func (p *ercSW) LockAcquire(*core.SyncEvent) {}

// LockRelease eagerly invalidates the copysets of every page this node wrote
// since the previous release, blocking until all copies are acknowledged
// gone. Only the owner invalidates. The invalidations of all written pages
// queue into one outbox, so a holder of several stale copies receives a
// single envelope covering them all and the acknowledgement waits overlap
// across holders.
func (p *ercSW) LockRelease(s *core.SyncEvent) {
	node := s.Node
	b := p.d.NewBatch(s.Thread)
	pl := p.d.NewPageList()
	pl.Pages = p.d.DirtyPages(p, node, pl.Pages)
	for _, pg := range pl.Pages {
		p.d.ClearDirty(node, pg)
		e := p.d.Entry(node, pg)
		e.Lock(s.Thread)
		if !e.Owner {
			// Ownership moved on before our release: the new owner
			// inherited the copyset and the invalidation duty.
			e.Unlock(s.Thread)
			continue
		}
		cs := e.TakeCopyset()
		e.Unlock(s.Thread)
		cs.ForEach(func(n int) { b.Invalidate(n, pg, -1) })
	}
	b.Flush(true)
	p.d.FreePageList(pl)
}
