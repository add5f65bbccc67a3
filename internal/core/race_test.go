package core

import (
	"fmt"
	"testing"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// This file regression-tests the stale-install race: a fast invalidation
// control message can overtake an in-flight page transfer, in which case the
// arriving page is stale and the sender no longer counts this node as a
// holder. The install must discard such copies (and let the access refault)
// unless ownership travels with the page.

// fetcherProto is a minimal home-based protocol: fault fetches from home,
// the home serves copies, invalidations drop.
type fetcherProto struct{ d *DSM }

func (p *fetcherProto) Name() string                    { return "fetcher" }
func (p *fetcherProto) ReadFaultHandler(f *Fault)       { FetchPage(f, false) }
func (p *fetcherProto) WriteFaultHandler(f *Fault)      { FetchPage(f, true) }
func (p *fetcherProto) InvalidateServer(iv *Invalidate) { DropCopy(iv) }
func (p *fetcherProto) ReceivePageServer(*PageMsg)      {}
func (p *fetcherProto) LockAcquire(*SyncEvent)          {}
func (p *fetcherProto) LockRelease(*SyncEvent)          {}
func (p *fetcherProto) ReadServer(r *Request) {
	e := p.d.Entry(r.Node, r.Page)
	e.Lock(r.Thread)
	e.AddCopyset(r.From)
	SendPage(r, e, r.From, memory.ReadOnly, false, NodeSet{})
	e.Unlock(r.Thread)
}
func (p *fetcherProto) WriteServer(r *Request) { p.ReadServer(r) }

func TestStaleInstallDiscarded(t *testing.T) {
	d := newDSM(2)
	id := d.registry.Register("fetcher", func(d *DSM) Protocol { return &fetcherProto{d: d} })
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	rt := d.Runtime()

	// Node 1 fetches the page; while the (slow, bulk) page transfer is in
	// flight, the home sends a (fast, control) invalidation that arrives
	// first. The page must NOT be installed when it lands.
	rt.CreateThread(1, "reader", func(th *pm2.Thread) {
		d.ReadUint64(th, base)
	})
	rt.CreateThread(0, "invalidator", func(th *pm2.Thread) {
		// Wait until the request has reached the home (11us fault +
		// 23us request + 13us serve = ~47us) and the page is on the
		// wire, then fire the invalidation: with BIP/Myrinet the
		// control message (23us) overtakes the transfer (138us).
		th.Advance(60 * sim.Microsecond)
		e := d.Entry(0, pg)
		e.Lock(th)
		cs := e.TakeCopyset()
		e.Unlock(th)
		InvalidateCopies(d, th, pg, cs, -1)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// The reader eventually succeeded (it refetched), and the page it
	// reads is the live one.
	if d.Stats().ReadFaults < 1 {
		t.Fatal("no fault recorded")
	}
	// The first copy was discarded, so at least two page sends happened.
	if d.Stats().PageSends < 2 {
		t.Fatalf("page sends = %d, want >= 2 (stale copy must be refetched)", d.Stats().PageSends)
	}
}

func TestOwnershipTransferImmuneToStaleGuard(t *testing.T) {
	// An ownership-carrying page must install even if an invalidation was
	// processed after the request went out: the previous owner serialized
	// the grant after any invalidation it sent.
	d := newDSM(2)
	id := d.registry.Register("fetcher", func(d *DSM) Protocol { return &fetcherProto{d: d} })
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	e := d.Entry(1, pg)

	rt := d.Runtime()
	rt.CreateThread(1, "installer", func(th *pm2.Thread) {
		// Simulate: request sent (pendingSeq snapshotted), then an
		// invalidation bumps the seq, then an ownership grant arrives.
		e.Lock(th)
		e.Pending = true
		e.pendingSeq = e.InvalSeq
		e.Unlock(th)
		e.InvalSeq++ // an invalidation was processed meanwhile
		e.Lock(th)
		d.install(&PageMsg{
			DSM:     d,
			Node:    1,
			Page:    pg,
			From:    0,
			Data:    make([]byte, PageSize),
			Access:  memory.ReadWrite,
			Owner:   1,
			Ownship: true,
		}, e)
		e.Unlock(th)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Owner {
		t.Fatal("ownership grant was discarded by the stale guard")
	}
	if d.Space(1).AccessOf(pg) != memory.ReadWrite {
		t.Fatal("granted page not installed")
	}
}

func TestStaleGuardDropsNonOwnershipCopy(t *testing.T) {
	d := newDSM(2)
	id := d.registry.Register("fetcher", func(d *DSM) Protocol { return &fetcherProto{d: d} })
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	e := d.Entry(1, pg)
	rt := d.Runtime()
	rt.CreateThread(1, "installer", func(th *pm2.Thread) {
		e.Lock(th)
		e.Pending = true
		e.pendingSeq = e.InvalSeq
		e.Unlock(th)
		e.InvalSeq++
		e.Lock(th)
		d.install(&PageMsg{
			DSM:    d,
			Node:   1,
			Page:   pg,
			From:   0,
			Data:   make([]byte, PageSize),
			Access: memory.ReadOnly,
			Owner:  0,
		}, e)
		e.Unlock(th)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if d.Space(1).AccessOf(pg) != memory.NoAccess {
		t.Fatal("stale copy was installed")
	}
	if e.Pending {
		t.Fatal("pending flag not cleared on discard")
	}
}

// hookedProto is fetcherProto with the standard install embedded and a
// ReceivePageServer of its own, which must run after every install.
type hookedProto struct {
	fetcherProto
	StandardInstall
	calls, bad int
}

func (p *hookedProto) ReceivePageServer(pm *PageMsg) {
	p.calls++
	if fr := p.d.Space(pm.Node).Frame(pm.Page); fr == nil || fr.Access != pm.Access || pm.Data != nil || p.d.Entry(pm.Node, pm.Page).Pending {
		p.bad++
	}
}

// TestOwnReceivePageServerRunsAfterInstall: a protocol that embeds
// StandardInstall and defines its own ReceivePageServer has that routine
// called once per page, after the copy is installed.
func TestOwnReceivePageServerRunsAfterInstall(t *testing.T) {
	d := newDSM(3)
	var p *hookedProto
	id := d.registry.Register("hooked", func(d *DSM) Protocol { p = &hookedProto{fetcherProto: fetcherProto{d: d}}; return p })
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(0, 2*PageSize, nil)
	rt := d.Runtime()
	for n := 1; n < 3; n++ {
		rt.CreateThread(n, fmt.Sprintf("reader%d", n), func(th *pm2.Thread) {
			d.ReadUint64(th, base)
			d.ReadUint64(th, base+PageSize)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if sends := d.Stats().PageSends; p.calls != int(sends) || sends != 4 || p.bad != 0 {
		t.Fatalf("ReceivePageServer ran %d times (%d before its page was installed) for %d page sends, want once per send after the install", p.calls, p.bad, sends)
	}
}
