package protocols

import (
	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

// hybrid is the library-composed protocol Section 2.3 proposes as an
// example of mixing mechanisms: page replication on read faults (as in
// li_hudak) and thread migration on write faults (as in migrate_thread).
//
// To stay sequentially consistent the two mechanisms must be combined
// carefully (the paper: "the user is responsible for using these features in
// a consistent way"): page ownership is fixed, read copies replicate from
// the owner, and a write fault first migrates the writer to the owning node;
// there, if read copies exist the owner's own copy is write-protected, so
// the write faults once more, locally, and that local fault invalidates the
// copyset before restoring write access.
type hybrid struct {
	core.StandardInstall
	d *core.DSM
}

// Name implements core.Protocol.
func (p *hybrid) Name() string { return "hybrid" }

// ReadFaultHandler replicates the page, like li_hudak.
func (p *hybrid) ReadFaultHandler(f *core.Fault) { core.FetchPage(f, false) }

// WriteFaultHandler migrates the writer to the owner node; once there, it
// reclaims exclusive access by invalidating outstanding read copies.
func (p *hybrid) WriteFaultHandler(f *core.Fault) {
	e, t := f.Entry, f.Thread
	e.Lock(t)
	if e.Owner {
		// Already at the owning node: revoke the read copies and
		// restore write access, holding the entry lock throughout.
		cs := e.TakeCopyset()
		core.InvalidateCopies(p.d, t, f.Page, cs, -1)
		p.d.Space(f.Node).SetAccess(f.Page, memory.ReadWrite)
		f.KeepEntryLocked()
		return
	}
	e.Unlock(t)
	core.MigrateToOwner(f)
}

// ReadServer grants read copies and write-protects the owner's copy, so
// subsequent owner-side writes fault and trigger the invalidation above.
func (p *hybrid) ReadServer(r *core.Request) { core.ServeReadCopy(r) }

// WriteServer is never invoked: writers migrate instead of requesting pages.
func (p *hybrid) WriteServer(*core.Request) {
	panic("hybrid: unexpected write request")
}

// InvalidateServer drops the local read copy.
func (p *hybrid) InvalidateServer(iv *core.Invalidate) { core.DropCopy(iv) }

// LockAcquire is a no-op.
func (p *hybrid) LockAcquire(*core.SyncEvent) {}

// LockRelease is a no-op.
func (p *hybrid) LockRelease(*core.SyncEvent) {}
