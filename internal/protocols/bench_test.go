package protocols

import (
	"testing"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Allocation pins of the miss path: what one operation of each kind leaves
// for the collector at steady state, which CI's "Allocation pins" step holds
// at the numbers named below (-benchtime=20000x -benchmem). Each benchmark
// warms its pools up inside the simulation — records, batches, vector calls
// and the fault-timing ring all start empty and fill on demand — and resets
// the timer from the measured thread once they have.

// pinHarness is a machine of nodes nodes under proto with one page homed on
// node 0 and one lock managed there.
func pinHarness(b *testing.B, nodes int, proto string) (rt *pm2.Runtime, d *core.DSM, base core.Addr, lock int) {
	rt = pm2.NewRuntime(pm2.Config{Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 1})
	reg, _ := NewRegistry()
	d = core.New(rt, reg, core.DefaultCosts())
	id, ok := reg.Lookup(proto)
	if !ok {
		b.Fatalf("protocol %q not registered", proto)
	}
	d.SetDefaultProtocol(id)
	return rt, d, d.MustMalloc(0, core.PageSize, nil), d.NewLock(0)
}

// pinned runs warm+b.N rounds of op in a thread on node and times the last b.N.
func pinned(b *testing.B, rt *pm2.Runtime, node, warm int, op func(th *pm2.Thread, i int)) {
	rt.CreateThread(node, "pinned", func(th *pm2.Thread) {
		for i := 0; i < warm+b.N; i++ {
			if i == warm {
				b.ReportAllocs()
				b.ResetTimer()
			}
			op(th, i)
		}
		b.StopTimer()
	})
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRemoteLockSection is an uncontended Acquire + Release of a lock
// managed on another node — two RPCs, two quick handlers, the acquire and
// release hooks of a protocol with nothing to do. Pinned at 0 allocs/op.
func BenchmarkRemoteLockSection(b *testing.B) {
	rt, d, _, lock := pinHarness(b, 2, "li_hudak")
	pinned(b, rt, 1, 64, func(th *pm2.Thread, _ int) {
		d.Acquire(th, lock)
		d.Release(th, lock)
	})
}

// BenchmarkContendedLockSection is two nodes taking turns at a lock managed
// on a third: each acquire finds the lock held by the other node, so the
// manager keeps it and the other's release answers it — no handler thread,
// waiter record or grant channel. Pinned at 0 allocs/op.
func BenchmarkContendedLockSection(b *testing.B) {
	rt, d, _, lock := pinHarness(b, 3, "li_hudak")
	section := func(th *pm2.Thread) {
		d.Acquire(th, lock)
		th.Advance(10 * sim.Microsecond)
		d.Release(th, lock)
	}
	const warm = 64
	rt.CreateThread(2, "rival", func(th *pm2.Thread) {
		for i := 0; i < warm+b.N; i++ {
			section(th)
		}
	})
	pinned(b, rt, 1, warm, func(th *pm2.Thread, _ int) { section(th) })
	if st := d.Stats(); st.Acquires != 2*int64(warm+b.N) {
		b.Fatalf("%d acquires, want %d", st.Acquires, 2*(warm+b.N))
	}
}

// BenchmarkWriteFaultInvalidate is a li_hudak write fault that invalidates two
// readers' copies: one thread reads the page on nodes 2 and 3, then writes it
// from node 0 or 1 in turn, so the write request always reaches the other of
// the two, whose page server invalidates both copies and collects the acks on
// its own reply queue before handing over ownership. Pinned at 0 allocs/op
// after the warm-up fills the fault-timing ring: the readers' next fetches
// refill the copyset TakeCopyset emptied inside its inline word.
func BenchmarkWriteFaultInvalidate(b *testing.B) {
	rt, d, base, _ := pinHarness(b, 4, "li_hudak")
	pinned(b, rt, 1, 1500, func(th *pm2.Thread, i int) {
		th.MigrateTo(2)
		d.ReadUint64(th, base)
		th.MigrateTo(3)
		d.ReadUint64(th, base)
		th.MigrateTo(1 - i%2)
		d.WriteUint64(th, base, uint64(i))
	})
	if st := d.Stats(); st.Invalidations < 2*int64(b.N) {
		b.Fatalf("%d invalidations for %d writes, want two each", st.Invalidations, b.N)
	}
}

// BenchmarkReadFaultFetch is a li_hudak read fault with its page fetch: fault
// record, request RPC, read server, page transfer in a pooled buffer, install.
// The reader drops its copy after each read so the next one misses again.
// Pinned at 0 allocs/op: the warm-up fills the fault-timing ring, after which
// every fault reuses the record the ring evicts.
func BenchmarkReadFaultFetch(b *testing.B) {
	rt, d, base, _ := pinHarness(b, 2, "li_hudak")
	pg := d.Space(0).PageOf(base)
	pinned(b, rt, 1, 4200, func(th *pm2.Thread, _ int) {
		d.ReadUint64(th, base)
		d.Space(1).Drop(pg)
	})
}

// BenchmarkReleaseFlushOneDiff is an hbrc_mw critical section that writes one
// word of a cached page and releases: write fault (twin in place), release
// hook, twin diff, one-diff outbox flush to the home, diff server, coalesced
// reply. Pinned at 0 allocs/op: the diff is a pooled record, refilled in
// place and freed by the home once its DiffServer returns. The warm-up fills
// the fault-timing ring, as in BenchmarkReadFaultFetch.
func BenchmarkReleaseFlushOneDiff(b *testing.B) {
	rt, d, base, lock := pinHarness(b, 2, "hbrc_mw")
	pinned(b, rt, 1, 4200, func(th *pm2.Thread, i int) {
		d.Acquire(th, lock)
		d.WriteUint64(th, base, uint64(i+1))
		d.Release(th, lock)
	})
}

// BenchmarkBatchFlushTwoDests is the outbox alone: a Batch of 2 destinations x
// (1 invalidation + 1 diff), flushed and acknowledged — flat list sort, two
// vector calls, six pooled records, two coalesced replies. Each round computes
// its diffs afresh: a queued diff is freed by the home. Pinned at 0 allocs/op.
func BenchmarkBatchFlushTwoDests(b *testing.B) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 3, Network: madeleine.BIPMyrinet, Seed: 1})
	d := core.New(rt, core.NewRegistry(), core.DefaultCosts())
	d.SetDefaultProtocol(d.CreateProtocol(&core.Hooks{ProtoName: "sink", OnDiffServer: func(*core.DiffMsg) {}}))
	pg := d.Space(0).PageOf(d.MustMalloc(0, core.PageSize, nil))
	twin := make([]byte, 24)
	var curs [3][]byte
	for dest := 1; dest < 3; dest++ {
		curs[dest] = make([]byte, 24)
		curs[dest][8*dest] = byte(dest)
	}
	pinned(b, rt, 0, 64, func(th *pm2.Thread, _ int) {
		batch := d.NewBatch(th)
		for dest := 1; dest < 3; dest++ {
			batch.Invalidate(dest, pg, -1)
			df := core.NewDiff(d)
			df.Compute(pg, twin, curs[dest], 0)
			batch.Diff(dest, df, false)
		}
		batch.Flush(true)
	})
}
