package protocols

import (
	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

// liHudak implements sequential consistency with the dynamic distributed
// manager MRSW algorithm of Li and Hudak, adapted to a multithreaded context
// following Mueller (Section 3.1): page replication on read faults, page
// migration (with ownership) on write faults, probable-owner chains to find
// the owner, copyset invalidation on writes. "Single writer" refers to a
// node, not a thread: all threads on the owning node share the same copy and
// may write it concurrently.
type liHudak struct {
	core.StandardInstall
	d *core.DSM
}

// Name implements core.Protocol.
func (p *liHudak) Name() string { return "li_hudak" }

// ReadFaultHandler brings a read copy of the page from its owner.
func (p *liHudak) ReadFaultHandler(f *core.Fault) { core.FetchPage(f, false) }

// WriteFaultHandler brings the page with ownership and write rights.
func (p *liHudak) WriteFaultHandler(f *core.Fault) { core.FetchPage(f, true) }

// ReadServer serves a read-copy request: the owner adds the requester to the
// copyset, downgrades its own right to read (MRSW: readers exclude writers)
// and ships a read-only copy. Non-owners forward along the probable-owner
// chain.
func (p *liHudak) ReadServer(r *core.Request) { core.ServeReadCopy(r) }

// WriteServer serves an ownership request: the owner invalidates every copy
// except the requester's, transfers the page with ownership and write
// rights, and redirects its own probable-owner hint at the new owner.
func (p *liHudak) WriteServer(r *core.Request) {
	e, owner := core.ServeWhenOwner(r)
	if !owner {
		core.ForwardRequest(r, e)
		return
	}
	// Invalidate before the new owner can write: sequential consistency
	// leaves no window where a reader holds a stale copy of a written
	// page. The entry lock stays held so no competing request interleaves.
	cs := e.TakeCopyset()
	core.InvalidateCopies(p.d, r.Thread, r.Page, cs, r.From)
	core.SendPage(r, e, r.From, memory.ReadWrite, true, core.NodeSet{})
	e.Owner = false
	e.ProbOwner = r.From
	p.d.Space(r.Node).Drop(r.Page)
	e.Unlock(r.Thread)
}

// InvalidateServer drops the local copy and learns the new owner.
func (p *liHudak) InvalidateServer(iv *core.Invalidate) { core.DropCopy(iv) }

// LockAcquire is a no-op: sequential consistency acts at access time.
func (p *liHudak) LockAcquire(*core.SyncEvent) {}

// LockRelease is a no-op: sequential consistency acts at access time.
func (p *liHudak) LockRelease(*core.SyncEvent) {}
