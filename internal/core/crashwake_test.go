package core

import (
	"fmt"
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// crashAt is when the crash tests fail node 1, which serves or acknowledges
// the wait each test strands; slow is longer than any wait takes.
const (
	crashAt = sim.Time(sim.Millisecond)
	slow    = 2 * sim.Millisecond
)

// wakeHarness builds a machine whose default protocol is h,
// with one page homed on node 1 holding 42 in its first byte and a read-only
// copy of it on node 0 (the survivor a crash of node 1 re-homes it to).
func wakeHarness(t *testing.T, nodes int, h *Hooks) (*DSM, *pm2.Runtime, Page) {
	t.Helper()
	rt := pm2.NewRuntime(pm2.Config{Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 1})
	d := New(rt, NewRegistry())
	d.SetDefaultProtocol(d.CreateProtocol(h))
	pg := d.Space(0).PageOf(d.MustMalloc(1, PageSize, nil))
	d.Space(1).Frame(pg).Data[0] = 42
	copy(d.Space(0).Ensure(pg).Data, d.Space(1).Frame(pg).Data)
	d.Space(0).SetAccess(pg, memory.ReadOnly)
	return d, rt, pg
}

// crash fails node n at the given instant and, with restart, brings it back
// cold 1 µs later.
func crash(d *DSM, n int, at sim.Time, restart bool) {
	d.rt.Engine().Schedule(at, func() { d.CrashNode(n) })
	if restart {
		d.rt.Engine().Schedule(at.Add(sim.Microsecond), func() { d.RestartNode(n) })
	}
}

// TestCrashEndsWaits: a crash of the node a protocol wait depends on ends the
// wait at the crash instant — a page fetch, an invalidation round, a diff
// ack, an outbox flight and both waits of a migration handshake — and the
// re-routed action gives the oracle's answer, whether or not the node
// restarts 1 µs later (a crashed peer stays dead to the waits it stranded).
func TestCrashEndsWaits(t *testing.T) {
	for _, restart := range []bool{false, true} {
		t.Run(fmt.Sprintf("restart=%v", restart), func(t *testing.T) {
			t.Run("fetch", func(t *testing.T) { crashEndsFetch(t, restart, holdServing) })
			t.Run("fetch, page held on a partition", func(t *testing.T) { crashEndsFetch(t, restart, holdPage) })
			t.Run("fetch, page lost on a lossy link", func(t *testing.T) { crashEndsFetch(t, restart, holdLostPage) })
			t.Run("fetch, forward held on a partition", func(t *testing.T) { crashEndsFetch(t, restart, holdForward) })
			t.Run("invalidation round", func(t *testing.T) { crashEndsInvalidation(t, restart) })
			t.Run("diff ack", func(t *testing.T) {
				crashEndsDiffAck(t, restart, func(d *DSM, th *pm2.Thread, df *memory.Diff) {
					SendDiffsHome(d, th, 1, df, true)
				})
			})
			t.Run("outbox flight", func(t *testing.T) {
				crashEndsDiffAck(t, restart, func(d *DSM, th *pm2.Thread, df *memory.Diff) {
					b := d.NewBatch(th)
					b.Invalidate(1, df.Page, -1)
					b.Diff(1, df, false)
					b.Flush(true)
				})
			})
			t.Run("migration, manager", func(t *testing.T) { crashEndsMigration(t, restart, 1) })
			t.Run("migration, owner", func(t *testing.T) { crashEndsMigration(t, restart, 2) })
		})
	}
}

// How the crashed node 1 holds the fetch of crashEndsFetch when it dies.
const (
	holdServing  = iota // its server is still computing
	holdPage            // its page waits on the partitioned link 1→2
	holdLostPage        // its page was lost on the lossy link 1→2 and waits to go again
	holdForward         // its forward to node 0 waits on the partitioned link 1→0
)

// crashEndsFetch: node 2's read fetch is held by its home, node 1, when the
// home crashes — in its slow server, or in a page or a forward that node 1
// sent but that is still on a link, which the crash discards. The fetch goes
// again at the crash instant, to the page's new home, and reads the
// surviving copy.
func crashEndsFetch(t *testing.T, restart bool, hold int) {
	var resent sim.Time = -1
	crashed := crashAt
	var d *DSM
	d, rt, pg := wakeHarness(t, 3, &Hooks{
		ProtoName:   "wake",
		OnReadFault: func(f *Fault) { FetchPage(f, false) },
		OnReadServer: func(r *Request) {
			switch {
			case r.Node == 0:
				resent = r.sentAt
			case hold == holdServing:
				r.Thread.Compute(slow)
			case hold == holdForward:
				ForwardRequestTo(r, 0)
				return
			}
			ServeHomeCopy(r, memory.ReadOnly)
			if hold == holdLostPage && r.Node == 1 {
				crashed = r.Thread.Now().Add(1) // before the page's retransmission
				crash(d, 1, crashed, restart)
			}
		},
	})
	net := rt.Network()
	if hold != holdLostPage { // which crashes from its server
		crash(d, 1, crashAt, restart)
	}
	switch hold {
	case holdPage:
		net.PartitionLink(1, 2)
	case holdLostPage:
		net.SetLinkLoss(1, 2, 0.7, 0) // the fault seed's first draw, 0.60, loses the page
	case holdForward:
		net.PartitionLink(1, 0)
	}
	var got uint64
	rt.CreateThread(2, "reader", func(th *pm2.Thread) {
		th.Compute(100 * sim.Microsecond)
		got = d.ReadUint64(th, d.Space(0).Base(pg))
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	fs := net.FaultStats()
	held := 0
	if hold != holdServing {
		held = 1
	}
	if fs.Dropped != held || (hold == holdLostPage) != (fs.Retransmits > 0) {
		t.Fatalf("crash dropped %d held messages after %d retransmits; want %d, and retransmits only on the lossy link",
			fs.Dropped, fs.Retransmits, held)
	}
	if resent != crashed || got != 42 {
		t.Fatalf("fetch sent again at %v, read %d; want %v and 42", resent, got, crashed)
	}
}

// crashEndsInvalidation: node 0 invalidates the copies on nodes 1 and 2;
// node 1 is still invalidating when it crashes, and the round ends then,
// with node 2's copy gone.
func crashEndsInvalidation(t *testing.T, restart bool) {
	d, rt, pg := wakeHarness(t, 3, &Hooks{
		ProtoName: "wake",
		OnInvalidate: func(iv *Invalidate) {
			if iv.Node == 1 {
				iv.Thread.Compute(slow)
			}
			DropCopy(iv)
		},
	})
	crash(d, 1, crashAt, restart)
	d.Space(2).Ensure(pg)
	d.Space(2).SetAccess(pg, memory.ReadOnly)
	var done sim.Time
	rt.CreateThread(0, "owner", func(th *pm2.Thread) {
		var cs NodeSet
		cs.Add(1)
		cs.Add(2)
		InvalidateCopies(d, th, pg, cs, 0)
		done = th.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if done != crashAt || d.Space(2).Frame(pg) != nil {
		t.Fatalf("round ended at %v with node 2's copy %v; want %v and dropped", done, d.Space(2).Frame(pg) != nil, crashAt)
	}
}

// TestCrashLeavesNoStrayAck: node 1 acknowledges an invalidation round and
// crashes while its ack is on the wire, so the round ends on peerDead and the
// ack lands on the round's queue afterwards. The next round, to node 1 after
// its restart, must wait for node 1's own ack, which its slow handler sends
// 2 ms later: had the first round's queue gone back to the pool, the next
// round would take the stray ack for it and end at once.
func TestCrashLeavesNoStrayAck(t *testing.T) {
	var d *DSM
	invalidations := 0
	var crashed sim.Time
	d, rt, pg := wakeHarness(t, 2, &Hooks{
		ProtoName: "wake",
		OnInvalidate: func(iv *Invalidate) {
			if invalidations++; invalidations == 1 {
				crashed = iv.Thread.Now().Add(1) // the ack leaves now
				crash(d, 1, crashed, true)
			} else {
				iv.Thread.Compute(slow)
			}
			DropCopy(iv)
		},
	})
	var first, start, second sim.Time
	rt.CreateThread(0, "owner", func(th *pm2.Thread) {
		var cs NodeSet
		cs.Add(1)
		InvalidateCopies(d, th, pg, cs, 0)
		first = th.Now()
		th.Compute(2 * sim.Microsecond) // past the restart
		start = th.Now()
		InvalidateCopies(d, th, pg, cs, 0)
		second = th.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if first != crashed || invalidations != 2 {
		t.Fatalf("first round ended at %v (crash at %v), %d invalidations served; want it to end at the crash, and 2", first, crashed, invalidations)
	}
	if second.Sub(start) < slow {
		t.Fatalf("second round took %v, less than node 1's %v handler: it took the first round's stray ack", second.Sub(start), slow)
	}
}

// crashEndsDiffAck: node 0 sends a diff to the home, whose DiffServer is
// still running when it crashes; the wait for its ack ends then, and the diff
// goes to the page's new home — node 0 itself — at the crash instant.
func crashEndsDiffAck(t *testing.T, restart bool, send func(d *DSM, th *pm2.Thread, df *memory.Diff)) {
	var appliedAt sim.Time = -1
	d, rt, pg := wakeHarness(t, 3, &Hooks{
		ProtoName: "wake",
		OnDiffServer: func(dm *DiffMsg) {
			if dm.Node == 1 {
				dm.Thread.Compute(slow)
			} else {
				appliedAt = dm.Thread.Now()
			}
			ApplyDiffs(dm)
		},
	})
	crash(d, 1, crashAt, restart)
	rt.CreateThread(0, "writer", func(th *pm2.Thread) {
		df := NewDiff(d)
		df.Compute(pg, make([]byte, 16), []byte{15: 9}, 0)
		send(d, th, df)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if data := d.Space(0).Frame(pg).Data; appliedAt != crashAt || data[0] != 42 || data[15] != 9 || d.dir[pg].home != 0 {
		t.Fatalf("diff applied at %v on home %d, page reads %d, %d; want %v on 0 and 42, 9",
			appliedAt, d.dir[pg].home, data[0], data[15], crashAt)
	}
}

// crashEndsMigration: node 0 moves the page from its owner, node 1, to node
// 2, and the crash of dead lands while the handshake is in flight — of the
// owner, whose handshake request never gets served, or of the new home,
// whose install never gets acknowledged. The manager learns at the crash
// instant, or one control message after it from the owner, that the move
// did not happen, and the page stays readable at its home with its value.
func crashEndsMigration(t *testing.T, restart bool, dead int) {
	d, rt, pg := wakeHarness(t, 3, &Hooks{ProtoName: "wake"})
	d.EnableProfiler()
	at := sim.Time(sim.Microsecond) // the handshake request is in flight to node 1
	if dead == 2 {
		at = sim.Time(50 * sim.Microsecond) // the install is in flight to node 2
	}
	crash(d, dead, at, restart)
	var done sim.Time
	moved := true
	rt.CreateThread(0, "manager", func(th *pm2.Thread) {
		f := d.startMigration(th, pg, 2)
		moved = d.finishMigration(th, f)
		done = th.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := at
	if dead == 2 {
		want = at.Add(d.rt.Link(1, 0).CtrlMsg)
	}
	home := d.dir[pg].home
	if moved || done != want || home == 2 || d.Space(home).Frame(pg).Data[0] != 42 {
		t.Fatalf("migration moved=%v, ended at %v, home %d; want false at %v and the value at a home that is not 2",
			moved, done, home, want)
	}
}
