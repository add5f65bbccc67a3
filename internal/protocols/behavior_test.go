package protocols

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// --- li_hudak ---------------------------------------------------------

func TestLiHudakReadReplicates(t *testing.T) {
	rt, d, ids := harness(4, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.LiHudak)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	for n := 1; n < 4; n++ {
		node := n
		rt.CreateThread(node, fmt.Sprintf("r%d", node), func(th *pm2.Thread) {
			d.ReadUint64(th, base)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// All nodes now hold a read copy; the owner was downgraded to read.
	for n := 0; n < 4; n++ {
		if got := d.Space(n).AccessOf(pg); got != memory.ReadOnly {
			t.Errorf("node %d access = %v, want r--", n, got)
		}
	}
	e := d.Entry(0, pg)
	if !e.Owner {
		t.Error("node 0 lost ownership on read serving")
	}
	for n := 1; n < 4; n++ {
		if !e.InCopyset(n) {
			t.Errorf("node %d missing from copyset", n)
		}
	}
}

func TestLiHudakWriteInvalidatesAndTransfersOwnership(t *testing.T) {
	rt, d, ids := harness(4, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.LiHudak)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	// Phase 1: everyone reads.
	for n := 1; n < 4; n++ {
		node := n
		rt.CreateThread(node, fmt.Sprintf("r%d", node), func(th *pm2.Thread) {
			d.ReadUint64(th, base)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Phase 2: node 2 writes.
	rt.CreateThread(2, "writer", func(th *pm2.Thread) {
		d.WriteUint64(th, base, 99)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Space(2).AccessOf(pg); got != memory.ReadWrite {
		t.Errorf("writer access = %v, want rw-", got)
	}
	if !d.Entry(2, pg).Owner {
		t.Error("ownership did not transfer to the writer")
	}
	for _, n := range []int{0, 1, 3} {
		if got := d.Space(n).AccessOf(pg); got != memory.NoAccess {
			t.Errorf("node %d still has access %v after invalidation", n, got)
		}
		if d.Entry(n, pg).Owner {
			t.Errorf("node %d still believes it owns the page", n)
		}
	}
	// Phase 3: node 0 reads back the new value through the prob-owner chain.
	var got uint64
	rt.CreateThread(0, "verify", func(th *pm2.Thread) {
		got = d.ReadUint64(th, base)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 99 {
		t.Fatalf("read %d after remote write, want 99", got)
	}
}

func TestLiHudakProbOwnerChain(t *testing.T) {
	// Ownership hops 0 -> 1 -> 2 -> 3; then node 0, whose hint still says
	// 1, must reach the true owner by forwarding.
	rt, d, ids := harness(4, madeleine.SISCISCI, 3)
	d.SetDefaultProtocol(ids.LiHudak)
	base := d.MustMalloc(0, 8, nil)
	for n := 1; n < 4; n++ {
		node := n
		rt.CreateThread(node, fmt.Sprintf("w%d", node), func(th *pm2.Thread) {
			th.Advance(sim.Duration(node) * 10 * sim.Millisecond) // serialize the hops
			d.WriteUint64(th, base, uint64(node))
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	rt.CreateThread(0, "verify", func(th *pm2.Thread) {
		got = d.ReadUint64(th, base)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("chain read = %d, want 3 (last writer)", got)
	}
}

func TestLiHudakConcurrentFaultsCoalesce(t *testing.T) {
	// 8 threads on one node fault on the same remote page; exactly one
	// page transfer must happen.
	rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.LiHudak)
	base := d.MustMalloc(1, 8, nil)
	for i := 0; i < 8; i++ {
		rt.CreateThread(0, fmt.Sprintf("r%d", i), func(th *pm2.Thread) {
			d.ReadUint64(th, base)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().PageSends; got != 1 {
		t.Fatalf("page sends = %d, want 1 (coalesced)", got)
	}
	if got := d.Stats().ReadFaults; got != 8 {
		t.Fatalf("read faults = %d, want 8", got)
	}
}

// --- migrate_thread ---------------------------------------------------

func TestMigrateThreadMovesThreadNotPage(t *testing.T) {
	rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.MigrateThread)
	base := d.MustMalloc(1, 8, nil)
	var endNode int
	th := rt.CreateThread(0, "worker", func(th *pm2.Thread) {
		d.WriteUint64(th, base, 5)
		endNode = th.Node()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if endNode != 1 {
		t.Fatalf("thread ended on node %d, want 1 (the data's owner)", endNode)
	}
	if th.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", th.Migrations())
	}
	if d.Stats().PageSends != 0 {
		t.Fatal("migrate_thread transferred a page")
	}
	pg := d.Space(0).PageOf(base)
	if d.Space(0).AccessOf(pg) != memory.NoAccess {
		t.Fatal("page replicated under migrate_thread")
	}
}

func TestMigrateThreadPilesThreadsOnOwner(t *testing.T) {
	// All threads accessing node 0's data end up on node 0 — the load
	// imbalance Figure 4 blames for migrate_thread's TSP performance.
	rt, d, ids := harness(4, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.MigrateThread)
	base := d.MustMalloc(0, 8, nil)
	locations := make([]int, 4)
	for n := 1; n < 4; n++ {
		node := n
		rt.CreateThread(node, fmt.Sprintf("w%d", node), func(th *pm2.Thread) {
			d.WriteUint64(th, base, uint64(node))
			locations[node] = th.Node()
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for n := 1; n < 4; n++ {
		if locations[n] != 0 {
			t.Errorf("thread from node %d ended on %d, want 0", n, locations[n])
		}
	}
	if rt.Node(0).MigrationsIn != 3 {
		t.Errorf("node 0 received %d migrations, want 3", rt.Node(0).MigrationsIn)
	}
}

// --- erc_sw -----------------------------------------------------------

func TestErcSWDefersInvalidationToRelease(t *testing.T) {
	rt, d, ids := harness(3, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.ErcSW)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	lock := d.NewLock(0)

	// Node 2 reads the initial value and keeps a copy.
	rt.CreateThread(2, "reader", func(th *pm2.Thread) { d.ReadUint64(th, base) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	// Node 1 writes inside a critical section. Before the release, the
	// reader's copy must still be present (RC permits staleness); after
	// the release it must be gone.
	var beforeRelease memory.Access
	rt.CreateThread(1, "writer", func(th *pm2.Thread) {
		d.Acquire(th, lock)
		d.WriteUint64(th, base, 42)
		beforeRelease = d.Space(2).AccessOf(pg)
		d.Release(th, lock)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if beforeRelease == memory.NoAccess {
		t.Error("erc_sw invalidated the reader before the release (that's eager-at-write, not RC)")
	}
	if got := d.Space(2).AccessOf(pg); got != memory.NoAccess {
		t.Errorf("reader access after release = %v, want invalidated", got)
	}
	// And the reader refetches the new value.
	var got uint64
	rt.CreateThread(2, "reader2", func(th *pm2.Thread) {
		d.Acquire(th, lock)
		got = d.ReadUint64(th, base)
		d.Release(th, lock)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("reader saw %d after acquire, want 42", got)
	}
}

// --- hbrc_mw ----------------------------------------------------------

func TestHbrcMWMultipleWritersMerge(t *testing.T) {
	// Two nodes write disjoint words of the same page under different
	// locks (MRMW: no ownership ping-pong); after both release, the home
	// holds both modifications.
	rt, d, ids := harness(3, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.HbrcMW)
	base := d.MustMalloc(0, core.PageSize, nil)
	lockA := d.NewLock(0)
	lockB := d.NewLock(0)
	rt.CreateThread(1, "w1", func(th *pm2.Thread) {
		d.Acquire(th, lockA)
		d.WriteUint64(th, base, 111)
		d.Release(th, lockA)
	})
	rt.CreateThread(2, "w2", func(th *pm2.Thread) {
		d.Acquire(th, lockB)
		d.WriteUint64(th, base+512, 222)
		d.Release(th, lockB)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var a, b uint64
	rt.CreateThread(0, "verify", func(th *pm2.Thread) {
		a = d.ReadUint64(th, base)
		b = d.ReadUint64(th, base+512)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 111 || b != 222 {
		t.Fatalf("home merged (%d,%d), want (111,222)", a, b)
	}
	if d.Stats().DiffsSent == 0 {
		t.Fatal("hbrc_mw sent no diffs")
	}
}

func TestHbrcMWDiffBytesSmall(t *testing.T) {
	// A single-word write must ship a diff, not the whole 4 KiB page.
	rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.HbrcMW)
	base := d.MustMalloc(0, core.PageSize, nil)
	lock := d.NewLock(0)
	rt.CreateThread(1, "w", func(th *pm2.Thread) {
		d.Acquire(th, lock)
		d.WriteUint64(th, base, 7)
		d.Release(th, lock)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.DiffsSent != 1 {
		t.Fatalf("diffs sent = %d, want 1", st.DiffsSent)
	}
	if st.DiffBytes > 256 {
		t.Fatalf("diff bytes = %d for an 8-byte write; twin diffing broken", st.DiffBytes)
	}
}

func TestHbrcMWHomeWritesPropagate(t *testing.T) {
	// Writes made on the home node itself must reach other nodes after a
	// release (this is why hbrc write-protects home pages).
	rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.HbrcMW)
	base := d.MustMalloc(0, 8, nil)
	lock := d.NewLock(0)
	// Node 1 caches the page first.
	rt.CreateThread(1, "prime", func(th *pm2.Thread) { d.ReadUint64(th, base) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	rt.CreateThread(0, "homewriter", func(th *pm2.Thread) {
		d.Acquire(th, lock)
		d.WriteUint64(th, base, 77)
		d.Release(th, lock)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	rt.CreateThread(1, "verify", func(th *pm2.Thread) {
		d.Acquire(th, lock)
		got = d.ReadUint64(th, base)
		d.Release(th, lock)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Fatalf("remote node saw %d after home write + release, want 77", got)
	}
}

// TestHomeReleaseTakesNoDiffRecord: a release at the home compares each
// dirty page with its twin instead of diffing it, since the home's writes are
// already in the reference copy. Under hbrc_mw (a lock release invalidates, a
// barrier queues a write notice) and entry_mw alike, the release leaves the
// pooled diff record untouched — a diff computed into it would have grown its
// buffers — while a changed page still costs the remote copy wherever the
// protocol revokes it, and an unchanged page costs nothing.
func TestHomeReleaseTakesNoDiffRecord(t *testing.T) {
	for _, tc := range []struct {
		name    string
		proto   func(IDs) core.ProtoID
		barrier bool
		revokes bool // a changed home page's release drops node 1's copy
	}{
		{"hbrc_mw lock", func(i IDs) core.ProtoID { return i.HbrcMW }, false, true},
		{"hbrc_mw barrier", func(i IDs) core.ProtoID { return i.HbrcMW }, true, true},
		{"entry_mw lock", func(i IDs) core.ProtoID { return i.EntryMW }, false, false},
	} {
		for _, changed := range []bool{false, true} {
			name := fmt.Sprintf("%s, page changed %v", tc.name, changed)
			rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
			d.SetDefaultProtocol(tc.proto(ids))
			base := d.MustMalloc(0, 8, nil)
			pg := d.Space(0).PageOf(base)
			lock, bar := d.NewLock(0), d.NewBarrier(2)
			rt.CreateThread(1, "prime", func(th *pm2.Thread) { d.ReadUint64(th, base) })
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			pooled := core.NewDiff(d)
			core.FreeDiff(d, pooled)
			var v uint64 // the page is zeroed: writing 0 leaves it unchanged
			if changed {
				v = 77
			}
			rt.CreateThread(0, "home", func(th *pm2.Thread) {
				if tc.barrier {
					d.WriteUint64(th, base, v)
					d.Barrier(th, bar)
					return
				}
				d.Acquire(th, lock)
				d.WriteUint64(th, base, v)
				d.Release(th, lock)
			})
			if tc.barrier {
				rt.CreateThread(1, "peer", func(th *pm2.Thread) { d.Barrier(th, bar) })
			}
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if df := core.NewDiff(d); df != pooled || cap(df.Entries) != 0 {
				t.Errorf("%s: the home release diffed into the pooled diff record", name)
			}
			if kept, want := d.Space(1).Frame(pg) != nil, !(changed && tc.revokes); kept != want {
				t.Errorf("%s: node 1 kept its copy = %v, want %v", name, kept, want)
			}
		}
	}
}

// TestHbrcMWHomeWritesUntwinnedWithoutCopies: a home write to a page no other
// node holds takes no twin — there is no copy its release could revoke — so
// a cold machine's first home writes allocate no page buffers, and the
// release leaves both the twin and the pooled diff record alone.
func TestHbrcMWHomeWritesUntwinnedWithoutCopies(t *testing.T) {
	const pages = 32
	rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.HbrcMW)
	base := d.MustMalloc(0, pages*core.PageSize, nil)
	lock := d.NewLock(0)
	pooled := core.NewDiff(d)
	core.FreeDiff(d, pooled)
	var written uint64
	twinned := -1
	rt.CreateThread(0, "home", func(th *pm2.Thread) {
		d.Acquire(th, lock)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pages; i++ {
			d.WriteUint64(th, base+core.Addr(i*core.PageSize), uint64(i+1))
		}
		runtime.ReadMemStats(&after)
		written = after.TotalAlloc - before.TotalAlloc
		twinned = 0
		for i := 0; i < pages; i++ {
			if core.HasTwin(d.Entry(0, d.Space(0).PageOf(base+core.Addr(i*core.PageSize)))) {
				twinned++
			}
		}
		d.Release(th, lock)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if twinned != 0 {
		t.Errorf("%d of %d home pages with no copies were twinned at their write fault", twinned, pages)
	}
	// A twin is a page-sized buffer, and the cold pool holds none to reuse.
	if !raceEnabled && written >= pages*core.PageSize/4 {
		t.Errorf("%d home write faults allocated %d bytes: page buffers were taken", pages, written)
	}
	if df := core.NewDiff(d); df != pooled || cap(df.Entries) != 0 {
		t.Error("the home release took the pooled diff record")
	}
	if core.HasTwin(d.Entry(0, d.Space(0).PageOf(base))) {
		t.Error("a home page holds a twin after the release")
	}
}

// TestHbrcMWServeTwinsDirtyHomePage: a copy served while the home is writing
// a page untwinned is twinned at the serve, so the home's release judges the
// copy against the page as it was served. A home write after the serve
// revokes the copy; with none, the copy already holds the final bytes and
// stays — under a lock release (eager invalidation) and a barrier (write
// notices) alike.
func TestHbrcMWServeTwinsDirtyHomePage(t *testing.T) {
	for _, barrier := range []bool{false, true} {
		for _, writeAfter := range []bool{false, true} {
			name := fmt.Sprintf("barrier %v, home writes after the serve %v", barrier, writeAfter)
			rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
			d.SetDefaultProtocol(ids.HbrcMW)
			base := d.MustMalloc(0, 8, nil)
			e := d.Entry(0, d.Space(0).PageOf(base))
			lock, bar := d.NewLock(0), d.NewBarrier(2)
			var beforeServe, afterServe bool
			var got uint64
			rt.CreateThread(0, "home", func(th *pm2.Thread) {
				if !barrier {
					d.Acquire(th, lock)
				}
				d.WriteUint64(th, base, 1)
				beforeServe = core.HasTwin(e)
				th.Advance(10 * sim.Millisecond) // node 1 fetches a copy meanwhile
				afterServe = core.HasTwin(e)
				if writeAfter {
					d.WriteUint64(th, base, 2)
				}
				if barrier {
					d.Barrier(th, bar)
				} else {
					d.Release(th, lock)
				}
			})
			rt.CreateThread(1, "reader", func(th *pm2.Thread) {
				th.Advance(5 * sim.Millisecond) // after the home's write fault
				got = d.ReadUint64(th, base)
				if barrier {
					d.Barrier(th, bar)
				}
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if beforeServe || !afterServe {
				t.Errorf("%s: home twin before the serve %v, after %v; want none, then one", name, beforeServe, afterServe)
			}
			if got != 1 {
				t.Errorf("%s: node 1 read %d, want the home's 1", name, got)
			}
			if kept := d.Space(1).Frame(e.Page) != nil; kept == writeAfter {
				t.Errorf("%s: node 1 kept its copy = %v, want %v", name, kept, !writeAfter)
			}
			if core.HasTwin(e) {
				t.Errorf("%s: the home page holds a twin after the release", name)
			}
		}
	}
}

// TestEntryMWHomeNeverTwins: entry_mw's home writes straight into the
// reference copy and judges no copy at release, so it takes no twin — not at
// a write fault with a copy out, nor when it serves a copy while writing.
func TestEntryMWHomeNeverTwins(t *testing.T) {
	rt, d, ids := harness(3, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.EntryMW)
	base := d.MustMalloc(0, 8, nil)
	e := d.Entry(0, d.Space(0).PageOf(base))
	lock := d.NewLock(0)
	rt.CreateThread(1, "prime", func(th *pm2.Thread) { d.ReadUint64(th, base) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var atFault, atServe bool
	rt.CreateThread(0, "home", func(th *pm2.Thread) {
		d.Acquire(th, lock)
		d.WriteUint64(th, base, 5)
		atFault = core.HasTwin(e)
		th.Advance(10 * sim.Millisecond) // node 2 fetches a copy meanwhile
		atServe = core.HasTwin(e)
		d.Release(th, lock)
	})
	rt.CreateThread(2, "reader", func(th *pm2.Thread) {
		th.Advance(5 * sim.Millisecond)
		d.ReadUint64(th, base)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if atFault || atServe || core.HasTwin(e) {
		t.Errorf("entry_mw home twinned: at the write fault %v, after a serve %v, after the release %v", atFault, atServe, core.HasTwin(e))
	}
	if !e.InCopyset(1) || !e.InCopyset(2) {
		t.Error("the served copies left the home's copyset")
	}
}

func TestHbrcMWThirdPartyFlushOnInvalidate(t *testing.T) {
	// Writer A releases; home invalidates writer B, who must flush its own
	// pending diff before dropping — the exact dance Section 3.2 describes.
	rt, d, ids := harness(3, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.HbrcMW)
	base := d.MustMalloc(0, core.PageSize, nil)
	lockA := d.NewLock(0)
	rt.CreateThread(2, "writerB", func(th *pm2.Thread) {
		// B writes without releasing yet.
		d.WriteUint64(th, base+1024, 222)
		// Wait long enough for A's release to invalidate us.
		th.Advance(50 * sim.Millisecond)
	})
	rt.CreateThread(1, "writerA", func(th *pm2.Thread) {
		th.Advance(5 * sim.Millisecond) // let B write first
		d.Acquire(th, lockA)
		d.WriteUint64(th, base, 111)
		d.Release(th, lockA)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var a, b uint64
	rt.CreateThread(0, "verify", func(th *pm2.Thread) {
		a = d.ReadUint64(th, base)
		b = d.ReadUint64(th, base+1024)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if a != 111 {
		t.Errorf("A's released write lost: %d", a)
	}
	if b != 222 {
		t.Errorf("B's flushed-on-invalidation write lost: %d", b)
	}
}

// --- hybrid and adaptive ---------------------------------------------

func TestHybridReadReplicatesWriteMigrates(t *testing.T) {
	rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.Hybrid)
	base := d.MustMalloc(1, 8, nil)
	pg := d.Space(0).PageOf(base)
	var nodeAfterRead, nodeAfterWrite int
	rt.CreateThread(0, "worker", func(th *pm2.Thread) {
		d.ReadUint64(th, base) // replicates: thread stays
		nodeAfterRead = th.Node()
		d.WriteUint64(th, base, 9) // migrates to the owner
		nodeAfterWrite = th.Node()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if nodeAfterRead != 0 {
		t.Errorf("thread moved on read (node %d), hybrid should replicate", nodeAfterRead)
	}
	if nodeAfterWrite != 1 {
		t.Errorf("thread on node %d after write, hybrid should migrate to owner", nodeAfterWrite)
	}
	// The read copy on node 0 must have been invalidated by the write.
	if got := d.Space(0).AccessOf(pg); got != memory.NoAccess {
		t.Errorf("stale read copy survived the write: %v", got)
	}
	var got uint64
	rt.CreateThread(0, "verify", func(th *pm2.Thread) { got = d.ReadUint64(th, base) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("read %d, want 9", got)
	}
}

func TestAdaptiveSwitchesToMigrationOnHotPage(t *testing.T) {
	rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.Adaptive)
	base := d.MustMalloc(1, 8, nil)
	var migrated bool
	th := rt.CreateThread(0, "worker", func(th *pm2.Thread) {
		// Ping-pong: each write pulls the page here, and a remote
		// reader pulls it back, so every write faults again.
		for i := 0; i < 10; i++ {
			d.WriteUint64(th, base, uint64(i))
			home := th.Node()
			rt.CreateThread(1, fmt.Sprintf("puller%d", i), func(p *pm2.Thread) {
				d.WriteUint64(p, base, 1000+uint64(i))
			})
			th.Advance(10 * sim.Millisecond) // let the puller take the page
			_ = home
			if th.Node() != 0 {
				migrated = true
				return
			}
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !migrated && th.Migrations() == 0 {
		t.Fatal("adaptive never switched to thread migration under ping-pong writes")
	}
}

// --- java_ic / java_pf ------------------------------------------------

func TestJavaICPaysCheckOnEveryAccess(t *testing.T) {
	rt, d, ids := harness(1, madeleine.SISCISCI, 1)
	d.SetDefaultProtocol(ids.JavaIC)
	obj := d.MustNewObject(0, 2, ids.JavaIC)
	var took sim.Duration
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		start := th.Now()
		for i := 0; i < 100; i++ {
			d.GetField(th, obj, 0)
		}
		took = th.Now().Sub(start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := 100 * d.Costs().Check
	if took != want {
		t.Fatalf("100 local gets under java_ic took %v, want %v (check cost each)", took, want)
	}
}

func TestJavaPFLocalAccessesFree(t *testing.T) {
	rt, d, ids := harness(1, madeleine.SISCISCI, 1)
	d.SetDefaultProtocol(ids.JavaPF)
	obj := d.MustNewObject(0, 2, ids.JavaPF)
	var took sim.Duration
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		start := th.Now()
		for i := 0; i < 100; i++ {
			d.GetField(th, obj, 0)
		}
		took = th.Now().Sub(start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if took != 0 {
		t.Fatalf("100 local gets under java_pf took %v, want 0 (no checks, no faults)", took)
	}
}

func TestJavaPFRemoteAccessFaults(t *testing.T) {
	rt, d, ids := harness(2, madeleine.SISCISCI, 1)
	d.SetDefaultProtocol(ids.JavaPF)
	obj := d.MustNewObject(1, 2, ids.JavaPF)
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		d.GetField(th, obj, 0)
		d.GetField(th, obj, 1) // second access: cached, no new fault
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.ReadFaults+st.WriteFaults != 1 {
		t.Fatalf("faults = %d, want exactly 1", st.ReadFaults+st.WriteFaults)
	}
}

func TestJavaICNoPageFaults(t *testing.T) {
	rt, d, ids := harness(2, madeleine.SISCISCI, 1)
	d.SetDefaultProtocol(ids.JavaIC)
	obj := d.MustNewObject(1, 2, ids.JavaIC)
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		d.GetField(th, obj, 0)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.ReadFaults+st.WriteFaults != 0 {
		t.Fatalf("java_ic raised %d page faults; inline checks must bypass them",
			st.ReadFaults+st.WriteFaults)
	}
	if st.ObjFetches != 1 {
		t.Fatalf("object fetches = %d, want 1", st.ObjFetches)
	}
}

func TestJavaMonitorVisibility(t *testing.T) {
	// JMM: writes inside a monitor are visible to the next thread entering
	// the monitor (flush on entry, transmit on exit).
	for _, ic := range []bool{true, false} {
		rt, d, ids := harness(2, madeleine.SISCISCI, 1)
		id := ids.JavaPF
		if ic {
			id = ids.JavaIC
		}
		d.SetDefaultProtocol(id)
		obj := d.MustNewObject(0, 1, id)
		mon := d.NewLock(0)
		rt.CreateThread(1, "w", func(th *pm2.Thread) {
			d.Acquire(th, mon)
			d.PutField(th, obj, 0, 1234)
			d.Release(th, mon)
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		var got uint64
		rt.CreateThread(0, "r", func(th *pm2.Thread) {
			d.Acquire(th, mon)
			got = d.GetField(th, obj, 0)
			d.Release(th, mon)
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 1234 {
			t.Fatalf("[ic=%v] monitor visibility broken: got %d", ic, got)
		}
	}
}

// --- cross-protocol properties ----------------------------------------

// protoList enumerates every built-in protocol for sweep tests. The object
// protocols are exercised through the same paged API (they fall back
// gracefully) plus their own object tests above.
func protoList(ids IDs) map[string]core.ProtoID {
	return map[string]core.ProtoID{
		"li_hudak":       ids.LiHudak,
		"migrate_thread": ids.MigrateThread,
		"erc_sw":         ids.ErcSW,
		"hbrc_mw":        ids.HbrcMW,
		"hybrid":         ids.Hybrid,
		"adaptive":       ids.Adaptive,
	}
}

// TestBarrierPhasedExchangeAllProtocols runs a two-phase neighbour exchange:
// each node writes its slot, everyone barriers, each node reads its
// neighbour's slot. Every protocol must deliver the freshly written values.
func TestBarrierPhasedExchangeAllProtocols(t *testing.T) {
	const nodes = 4
	reg, ids := NewRegistry()
	_ = reg
	for name, pid := range protoList(ids) {
		t.Run(name, func(t *testing.T) {
			rt, d, ids2 := harness(nodes, madeleine.BIPMyrinet, 9)
			var id core.ProtoID
			switch name {
			case "li_hudak":
				id = ids2.LiHudak
			case "migrate_thread":
				id = ids2.MigrateThread
			case "erc_sw":
				id = ids2.ErcSW
			case "hbrc_mw":
				id = ids2.HbrcMW
			case "hybrid":
				id = ids2.Hybrid
			case "adaptive":
				id = ids2.Adaptive
			}
			_ = pid
			d.SetDefaultProtocol(id)
			// One page per node so writers do not fight: slot n lives on node n.
			addrs := make([]core.Addr, nodes)
			for n := 0; n < nodes; n++ {
				addrs[n] = d.MustMalloc(n, 8, nil)
			}
			bar := d.NewBarrier(nodes)
			got := make([]uint64, nodes)
			for n := 0; n < nodes; n++ {
				node := n
				rt.CreateThread(node, fmt.Sprintf("p%d", node), func(th *pm2.Thread) {
					d.WriteUint64(th, addrs[node], uint64(100+node))
					d.Barrier(th, bar)
					got[node] = d.ReadUint64(th, addrs[(node+1)%nodes])
				})
			}
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < nodes; n++ {
				want := uint64(100 + (n+1)%nodes)
				if got[n] != want {
					t.Errorf("node %d read %d from neighbour, want %d", n, got[n], want)
				}
			}
		})
	}
}

// TestRandomProgramMatchesReference runs a random lock-protected read-
// modify-write program on every protocol and compares the final shared state
// with a sequential reference execution.
func TestRandomProgramMatchesReference(t *testing.T) {
	type op struct {
		node int
		slot int
		add  uint64
	}
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nodes, slots, opsPerNode = 3, 8, 12
		var program [nodes][]op
		for n := 0; n < nodes; n++ {
			for i := 0; i < opsPerNode; i++ {
				program[n] = append(program[n], op{
					node: n,
					slot: rng.Intn(slots),
					add:  uint64(1 + rng.Intn(100)),
				})
			}
		}
		// Sequential reference.
		var ref [slots]uint64
		for n := 0; n < nodes; n++ {
			for _, o := range program[n] {
				ref[o.slot] += o.add
			}
		}
		_, ids := NewRegistry()
		for _, pid := range []core.ProtoID{ids.LiHudak, ids.MigrateThread, ids.ErcSW, ids.HbrcMW, ids.Hybrid} {
			rt, d, _ := harness(nodes, madeleine.SISCISCI, seed)
			d.SetDefaultProtocol(pid)
			base := d.MustMalloc(0, slots*8, nil)
			lock := d.NewLock(0)
			for n := 0; n < nodes; n++ {
				node := n
				rt.CreateThread(node, fmt.Sprintf("p%d", node), func(th *pm2.Thread) {
					for _, o := range program[node] {
						d.Acquire(th, lock)
						a := base + core.Addr(o.slot*8)
						d.WriteUint64(th, a, d.ReadUint64(th, a)+o.add)
						d.Release(th, lock)
					}
				})
			}
			if err := rt.Run(); err != nil {
				return false
			}
			ok := true
			rt.CreateThread(0, "verify", func(th *pm2.Thread) {
				d.Acquire(th, lock)
				for s := 0; s < slots; s++ {
					if d.ReadUint64(th, base+core.Addr(s*8)) != ref[s] {
						ok = false
					}
				}
				d.Release(th, lock)
			})
			if err := rt.Run(); err != nil || !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(seed int64) bool { return run(seed) }, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicReplay: the same seed and program give bit-identical
// virtual end times and stats.
func TestDeterministicReplay(t *testing.T) {
	run := func() (sim.Time, core.Stats) {
		rt, d, ids := harness(4, madeleine.BIPMyrinet, 77)
		d.SetDefaultProtocol(ids.LiHudak)
		base := d.MustMalloc(0, 64, nil)
		lock := d.NewLock(0)
		for n := 0; n < 4; n++ {
			node := n
			rt.CreateThread(node, fmt.Sprintf("p%d", node), func(th *pm2.Thread) {
				for i := 0; i < 20; i++ {
					d.Acquire(th, lock)
					a := base + core.Addr(8*(i%8))
					d.WriteUint64(th, a, d.ReadUint64(th, a)+1)
					d.Release(th, lock)
				}
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.Now(), d.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Fatalf("replay end times differ: %v vs %v", t1, t2)
	}
	if s1 != s2 {
		t.Fatalf("replay stats differ: %+v vs %+v", s1, s2)
	}
}

// TestProtocolsPerAreaCoexist attaches different protocols to different
// allocations in one application (Section 2.3: "different DSM protocols may
// be associated to different DSM memory areas within the same application").
func TestProtocolsPerAreaCoexist(t *testing.T) {
	t.Run("li_hudak+hbrc_mw+migrate_thread", func(t *testing.T) {
		rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
		d.SetDefaultProtocol(ids.LiHudak)
		a := d.MustMalloc(0, 8, &core.Attr{Protocol: ids.LiHudak, Home: 0})
		b := d.MustMalloc(0, 8, &core.Attr{Protocol: ids.HbrcMW, Home: 0})
		c := d.MustMalloc(1, 8, &core.Attr{Protocol: ids.MigrateThread, Home: 1})
		lock := d.NewLock(0)
		var endNode int
		rt.CreateThread(1, "worker", func(th *pm2.Thread) {
			d.Acquire(th, lock)
			d.WriteUint64(th, a, 1) // li_hudak: page migrates here
			d.WriteUint64(th, b, 2) // hbrc: twin + diff at release
			d.Release(th, lock)
			d.WriteUint64(th, c, 3) // migrate_thread... already on owner node 1
			endNode = th.Node()
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if endNode != 1 {
			t.Fatalf("worker ended on node %d, want 1", endNode)
		}
		var va, vb, vc uint64
		rt.CreateThread(0, "verify", func(th *pm2.Thread) {
			d.Acquire(th, lock)
			va = d.ReadUint64(th, a)
			vb = d.ReadUint64(th, b)
			d.Release(th, lock)
			vc = d.ReadUint64(th, c) // migrate_thread: this thread hops to node 1
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if va != 1 || vb != 2 || vc != 3 {
			t.Fatalf("per-area protocols broke: got (%d,%d,%d)", va, vb, vc)
		}
	})
	// Three protocols that keep dirty marks, written by one node in one
	// critical section: each release sweep must take only its own
	// protocol's pages. erc_sw sweeps first (lowest id); a sweep that took
	// every marked page would clear hbrc_mw's and entry_mw's marks, and
	// their diffs would never reach the home.
	t.Run("erc_sw+hbrc_mw+entry_mw", func(t *testing.T) {
		rt, d, ids := harness(3, madeleine.BIPMyrinet, 1)
		protos := []core.ProtoID{ids.ErcSW, ids.HbrcMW, ids.EntryMW}
		var areas []core.Addr
		for _, id := range protos {
			areas = append(areas, d.MustMalloc(0, 8, &core.Attr{Protocol: id, Home: 0}))
		}
		lock := d.NewLock(0)
		for n := 0; n < 3; n++ {
			rt.CreateThread(n, fmt.Sprintf("reader%d", n), func(th *pm2.Thread) {
				for _, a := range areas {
					d.ReadUint64(th, a) // stale copies for the release to handle
				}
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		rt.CreateThread(1, "writer", func(th *pm2.Thread) {
			d.Acquire(th, lock)
			for i, a := range areas {
				d.WriteUint64(th, a, uint64(i+1))
			}
			d.Release(th, lock)
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 2} {
			got := make([]uint64, len(areas))
			rt.CreateThread(n, "verify", func(th *pm2.Thread) {
				d.Acquire(th, lock)
				for i, a := range areas {
					got[i] = d.ReadUint64(th, a)
				}
				d.Release(th, lock)
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if v != uint64(i+1) {
					t.Errorf("node %d read %d from the %s area, want %d", n, v, d.RegistryName(protos[i]), i+1)
				}
			}
		}
	})
}
