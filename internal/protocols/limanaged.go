package protocols

import (
	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

// liManaged implements the two non-dynamic page manager strategies of Li and
// Hudak's classification, which the paper's page manager was explicitly
// designed to accommodate ("protocols which need a fixed page manager, as
// well as protocols based on a dynamic page manager", Section 2.2):
//
//   - li_fixed:   fixed distributed manager — every page is managed by its
//     home node; requests go to the manager, which serves or forwards them
//     to the current owner.
//   - li_central: centralized manager — one node (node 0) manages every
//     page. Simple, but the manager is a bottleneck and remote faults pay
//     an extra forwarding hop, which the manager-strategy ablation bench
//     measures against li_hudak's probable-owner chains.
//
// The manager tracks the authoritative owner in its own page-table entry's
// ProbOwner field and, as in Li and Hudak's algorithm, optimistically
// repoints it at the requester when forwarding a write request. Non-manager,
// non-owner nodes always aim their requests at the manager.
type liManaged struct {
	d       *core.DSM
	name    string
	manager func(e *core.Entry) int
}

func newLiFixed(d *core.DSM) *liManaged {
	return &liManaged{d: d, name: "li_fixed", manager: func(e *core.Entry) int { return e.Home }}
}

func newLiCentral(d *core.DSM) *liManaged {
	return &liManaged{d: d, name: "li_central", manager: func(e *core.Entry) int { return 0 }}
}

// Name implements core.Protocol.
func (p *liManaged) Name() string { return p.name }

// InitPage aims every node's request hint at the manager. The manager's own
// entry doubles as the authoritative owner record; the page starts owned by
// its home.
func (p *liManaged) InitPage(pg core.Page, home int) {
	for n := 0; n < p.d.Runtime().Nodes(); n++ {
		e := p.d.Entry(n, pg)
		mgr := p.manager(e)
		if n == mgr {
			e.ProbOwner = home // authoritative owner record
		} else {
			e.ProbOwner = mgr // all requests go to the manager
		}
	}
}

// ReadFaultHandler requests a read copy via the manager.
func (p *liManaged) ReadFaultHandler(f *core.Fault) { core.FetchPage(f, false) }

// WriteFaultHandler requests the page and ownership via the manager.
func (p *liManaged) WriteFaultHandler(f *core.Fault) { core.FetchPage(f, true) }

// ReadServer either serves (if this node owns the page) or, at the manager,
// forwards the request to the recorded owner.
func (p *liManaged) ReadServer(r *core.Request) { core.ServeReadCopy(r) }

// WriteServer transfers page and ownership like li_hudak; at the manager it
// forwards and optimistically records the requester as the new owner.
func (p *liManaged) WriteServer(r *core.Request) {
	e, owner := core.ServeWhenOwner(r)
	if !owner {
		if r.Node == p.manager(e) {
			// Li & Hudak: the manager repoints the owner record at
			// the write requester as it forwards.
			dest := e.ProbOwner
			e.ProbOwner = r.From
			e.Unlock(r.Thread)
			core.ForwardRequestTo(r, dest)
			return
		}
		core.ForwardRequest(r, e)
		return
	}
	cs := e.TakeCopyset()
	core.InvalidateCopies(p.d, r.Thread, r.Page, cs, r.From)
	core.SendPage(r, e, r.From, memory.ReadWrite, true, core.NodeSet{})
	e.Owner = false
	e.ProbOwner = r.From
	p.d.Space(r.Node).Drop(r.Page)
	e.Unlock(r.Thread)
}

// InvalidateServer drops the local copy. The owner hint is NOT redirected at
// the new owner: non-manager nodes must keep asking the manager.
func (p *liManaged) InvalidateServer(iv *core.Invalidate) {
	e := p.d.Entry(iv.Node, iv.Page)
	e.Lock(iv.Thread)
	p.d.Space(iv.Node).Drop(iv.Page)
	e.Owner = false
	if iv.Node != p.manager(e) {
		e.ProbOwner = p.manager(e)
	}
	e.Unlock(iv.Thread)
}

// ReceivePageServer re-aims the hint at the manager (the install points it at
// the sender, which is right for dynamic chains but wrong for managed
// schemes).
func (p *liManaged) ReceivePageServer(pm *core.PageMsg) {
	if e := p.d.Entry(pm.Node, pm.Page); !e.Owner && pm.Node != p.manager(e) {
		e.ProbOwner = p.manager(e)
	}
}

// LockAcquire is a no-op: sequential consistency acts at access time.
func (p *liManaged) LockAcquire(*core.SyncEvent) {}

// LockRelease is a no-op.
func (p *liManaged) LockRelease(*core.SyncEvent) {}
