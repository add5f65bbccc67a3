package protocols

import (
	"slices"

	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

// entryMW implements Midway-style entry consistency, the third weak model
// the paper's generic core was specified to support ("weaker consistency
// models, like release, entry, or scope consistency require that consistency
// actions be taken at synchronization points", Section 2.2).
//
// Shared data is associated with locks through core.BindLock. A page is
// guaranteed consistent only to a thread holding the page's lock:
//
//   - write faults mark the page dirty (home-based MRMW, as in hbrc_mw);
//     a copy away from the home is twinned first, while the home writes
//     straight into the reference copy and never twins: nothing judges
//     its copies at release;
//   - releasing a lock flushes the diffs of the dirty pages *bound to that
//     lock* to their homes — and nothing else;
//   - acquiring a lock drops the local copies of the pages bound to it, so
//     the holder refetches fresh data on demand — other cached pages are
//     left alone.
//
// Compared with release consistency, which must make *all* of a releaser's
// writes visible to the next acquirer, entry consistency touches only the
// data actually guarded by the lock, trading annotation effort (the
// BindLock calls) for less synchronization traffic. Barriers are global
// synchronization: they flush and drop everything, bound or not.
type entryMW struct {
	core.StandardInstall
	d *core.DSM
}

// Name implements core.Protocol.
func (p *entryMW) Name() string { return "entry_mw" }

// InitPage write-protects the page at its home so home writes are tracked,
// exactly as hbrc_mw does.
func (p *entryMW) InitPage(pg core.Page, home int) {
	p.d.Space(home).SetAccess(pg, memory.ReadOnly)
}

// ReadFaultHandler fetches a read-only copy from the home.
func (p *entryMW) ReadFaultHandler(f *core.Fault) { core.FetchPage(f, false) }

// WriteFaultHandler enables local writing, with a twin away from the home,
// marking the page dirty for the next release of its lock.
func (p *entryMW) WriteFaultHandler(f *core.Fault) { core.TwinOnWrite(f, false) }

// ReadServer runs at the home and grants a read-only copy.
func (p *entryMW) ReadServer(r *core.Request) { core.ServeHomeCopy(r, memory.ReadOnly) }

// WriteServer runs at the home and grants a writable copy (MRMW).
func (p *entryMW) WriteServer(r *core.Request) { core.ServeHomeCopy(r, memory.ReadWrite) }

// InvalidateServer flushes pending modifications and drops the copy (used
// only via the barrier's global synchronization).
func (p *entryMW) InvalidateServer(iv *core.Invalidate) { core.FlushAndDrop(iv) }

// LockAcquire drops the local copies of the pages bound to the acquired
// lock (after flushing any of our own pending modifications to them), so
// the holder sees the previous holder's writes. Barrier acquires apply to
// every page of this protocol.
func (p *entryMW) LockAcquire(s *core.SyncEvent) {
	p.dropCopies(s, p.scope(s))
}

// LockRelease flushes the diffs of the dirty pages bound to the released
// lock to their home nodes. Barrier releases flush everything.
func (p *entryMW) LockRelease(s *core.SyncEvent) {
	p.flushDirty(s, p.scope(s))
}

// scope returns the pages an acquire/release acts on: the lock's bound
// pages, or nil meaning "all of this protocol's pages" for barriers and
// unbound locks (which then behave like release consistency, a safe
// fallback for unannotated programs).
func (p *entryMW) scope(s *core.SyncEvent) []core.Page {
	if s.Barrier {
		return nil
	}
	if bound := p.d.BoundPages(s.Lock); len(bound) > 0 {
		return bound
	}
	return nil
}

// inScope reports whether pg participates in the current synchronization.
func inScope(scope []core.Page, pg core.Page) bool {
	return scope == nil || slices.Contains(scope, pg)
}

func (p *entryMW) flushDirty(s *core.SyncEvent, scope []core.Page) {
	node := s.Node
	b := p.d.NewBatch(s.Thread)
	pl := p.d.NewPageList()
	pl.Pages = p.d.DirtyPages(p, node, pl.Pages)
	for _, pg := range pl.Pages {
		if !inScope(scope, pg) {
			continue
		}
		p.d.ClearDirty(node, pg)
		e := p.d.Entry(node, pg)
		e.Lock(s.Thread)
		var diff *memory.Diff
		if e.Home != node { // home writes are already in the reference copy
			diff = core.TwinDiff(p.d, node, e)
		}
		p.d.Space(node).SetAccess(pg, memory.ReadOnly)
		e.Unlock(s.Thread)
		if diff != nil {
			b.Diff(e.Home, diff, false)
		}
	}
	// One envelope per home, every envelope in flight before the first
	// wait: flushes to distinct homes overlap.
	b.Flush(true)
	p.d.FreePageList(pl)
}

func (p *entryMW) dropCopies(s *core.SyncEvent, scope []core.Page) {
	node := s.Node
	b := p.d.NewBatch(s.Thread)
	pl := p.d.NewPageList()
	pl.Pages = p.d.PagesOn(node, pl.Pages)
	for _, pg := range pl.Pages {
		if !inScope(scope, pg) {
			continue
		}
		_, proto, ok := p.d.PageInfo(pg)
		if !ok || p.d.RegistryName(proto) != p.Name() {
			continue
		}
		e := p.d.Entry(node, pg)
		if e.Home == node {
			continue // the reference copy is always fresh
		}
		e.Lock(s.Thread)
		var flush *memory.Diff
		if p.d.Space(node).Frame(pg) != nil {
			flush = core.TwinDiff(p.d, node, e)
			p.d.Space(node).Drop(pg)
		}
		p.d.ClearDirty(node, pg)
		e.Unlock(s.Thread)
		if flush != nil {
			b.Diff(e.Home, flush, false)
		}
	}
	b.Flush(true)
	p.d.FreePageList(pl)
}

// DiffServer applies arriving diffs to the reference copy.
func (p *entryMW) DiffServer(dm *core.DiffMsg) { core.ApplyDiffs(dm) }
