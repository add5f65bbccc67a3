package protocols

import (
	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

// java implements the Java Memory Model consistency of Section 3.3, as
// co-designed with the Hyperion compiling system: a home-based MRMW protocol
// where main memory is the set of home nodes, objects are replicated on
// access, at most one copy of an object exists per node (caches belong to
// nodes, not threads), modifications are recorded on the fly at object-field
// granularity through the put primitive, a thread's cache is flushed on
// monitor entry, and recorded modifications are transmitted to main memory
// on monitor exit.
//
// The two built-in variants differ only in access detection:
//
//   - java_ic (inline checks): every get/put pays an explicit locality
//     check; a miss triggers a direct protocol fetch, bypassing the page
//     fault machinery entirely.
//   - java_pf (page faults): get/put go straight at memory; non-local
//     accesses raise the usual fault and pay the fault-handling cost, but
//     local accesses pay nothing.
//
// Figure 5's result — java_pf outperforming java_ic under intensive use of
// mostly-local objects — falls out of exactly this difference.
type java struct {
	core.StandardInstall
	d           *core.DSM
	inlineCheck bool
}

// Name implements core.Protocol.
func (p *java) Name() string {
	if p.inlineCheck {
		return "java_ic"
	}
	return "java_pf"
}

// ReadFaultHandler fetches a writable copy from the home (MRMW: every cached
// copy is writable, so a later put does not fault again). Only java_pf ever
// faults; java_ic detects misses before touching memory.
func (p *java) ReadFaultHandler(f *core.Fault) { core.FetchPage(f, true) }

// WriteFaultHandler fetches a writable copy from the home.
func (p *java) WriteFaultHandler(f *core.Fault) { core.FetchPage(f, true) }

// ReadServer runs at the home node and ships a writable copy.
func (p *java) ReadServer(r *core.Request) { core.ServeHomeCopy(r, memory.ReadWrite) }

// WriteServer runs at the home node and ships a writable copy.
func (p *java) WriteServer(r *core.Request) { core.ServeHomeCopy(r, memory.ReadWrite) }

// InvalidateServer drops the local cached copy (flushing any recorded
// modifications home first, so nothing is lost).
func (p *java) InvalidateServer(iv *core.Invalidate) { core.FlushAndDrop(iv) }

// LockAcquire implements the JMM cache flush on monitor entry: every cached
// (non-home) page on the node is dropped, after flushing any not-yet-
// transmitted recorded modifications.
func (p *java) LockAcquire(s *core.SyncEvent) {
	node := s.Node
	b := p.d.NewBatch(s.Thread)
	pl := p.d.NewPageList()
	pl.Pages = p.d.PagesOn(node, pl.Pages)
	for _, pg := range pl.Pages {
		e := p.d.Entry(node, pg)
		if e.Home == node {
			continue
		}
		_, proto, _ := p.d.PageInfo(pg)
		if p.d.RegistryName(proto) != p.Name() {
			continue // cache flush applies to this protocol's pages only
		}
		e.Lock(s.Thread)
		if p.d.Space(node).Frame(pg) != nil {
			if diff := core.TakeRecorded(e); diff != nil {
				b.Diff(e.Home, diff, false)
			}
			p.d.Space(node).Drop(pg)
		}
		p.d.ClearDirty(node, pg)
		e.Unlock(s.Thread)
	}
	// One envelope per home, waits overlapped across homes.
	b.Flush(true)
	p.d.FreePageList(pl)
}

// LockRelease transmits the modifications recorded since the last release to
// the home nodes (the Hyperion run-time's main-memory update on monitor
// exit), blocking until they are applied.
func (p *java) LockRelease(s *core.SyncEvent) {
	node := s.Node
	b := p.d.NewBatch(s.Thread)
	pl := p.d.NewPageList()
	pl.Pages = p.d.DirtyPages(p, node, pl.Pages)
	for _, pg := range pl.Pages {
		p.d.ClearDirty(node, pg)
		e := p.d.Entry(node, pg)
		e.Lock(s.Thread)
		diff := core.TakeRecorded(e)
		e.Unlock(s.Thread)
		if diff != nil {
			b.Diff(e.Home, diff, false)
		}
	}
	b.Flush(true)
	p.d.FreePageList(pl)
}

// DiffServer applies arriving modifications to the reference copy at the
// home. No invalidations follow: acquirers flush their own caches.
func (p *java) DiffServer(dm *core.DiffMsg) { core.ApplyDiffs(dm) }

// Get implements the get access primitive.
func (p *java) Get(a *core.ObjAccess) {
	t, node := a.Thread, a.Thread.Node()
	space := p.d.Space(node)
	pg := space.PageOf(a.Addr)
	if p.inlineCheck {
		// Explicit locality check on every access.
		t.Advance(p.d.Costs().Check)
		p.ensureLocal(a, pg)
		if err := space.Read(a.Addr, a.Buf); err != nil {
			panic("java_ic: read failed after fetch: " + err.Error())
		}
		return
	}
	// Page-fault detection: local hits cost nothing extra.
	p.d.Access(t, a.Addr, a.Buf, false)
}

// Put implements the put access primitive, recording the modification at
// field granularity.
func (p *java) Put(a *core.ObjAccess) {
	t, node := a.Thread, a.Thread.Node()
	space := p.d.Space(node)
	pg := space.PageOf(a.Addr)
	if p.inlineCheck {
		t.Advance(p.d.Costs().Check)
		p.ensureLocal(a, pg)
		if err := space.Write(a.Addr, a.Buf); err != nil {
			panic("java_ic: write failed after fetch: " + err.Error())
		}
	} else {
		p.d.Access(t, a.Addr, a.Buf, true)
	}
	e := p.d.Entry(node, pg)
	if e.Home == node {
		return // the reference copy is updated in place
	}
	e.Lock(t)
	core.RecordPut(p.d, e, a.Addr, a.Buf)
	p.d.MarkDirty(node, pg)
	e.Unlock(t)
}

// ensureLocal brings the page into the local cache if absent (java_ic's miss
// path: a direct protocol fetch that bypasses the fault machinery and its
// 11us detection cost).
func (p *java) ensureLocal(a *core.ObjAccess, pg core.Page) {
	node := a.Thread.Node()
	if p.d.Space(node).AccessOf(pg).Allows(true) {
		return
	}
	p.d.CountObjFetch()
	f := &core.Fault{
		DSM:    p.d,
		Thread: a.Thread,
		Node:   node,
		Addr:   a.Addr,
		Page:   pg,
		Write:  a.Write,
		Entry:  p.d.Entry(node, pg),
	}
	core.FetchPage(f, true)
	// FetchPage hands the entry lock back flagged for the core's fault
	// path; the object path releases it directly.
	f.Entry.Unlock(a.Thread)
}
