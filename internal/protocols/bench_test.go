package protocols

import (
	"runtime"
	"testing"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Allocation pins of the miss path: what one operation of each kind leaves
// for the collector at steady state. Each pin is a missPin, run as a
// benchmark (-benchmem reports it) and by TestMissPathAllocationPins, which
// holds every one at the number named below. Each pin warms its pools up
// inside the simulation — records, batches, vector calls and the
// fault-timing ring all start empty and fill on demand, the ring's records
// one chunk per 18 faults — before the measured rounds.

// missPin builds one pinned operation for rounds measured rounds: the machine,
// the node of the measuring thread, its warm-up rounds, the operation, and a
// check (may be nil) of what the rounds did, run once the machine stops.
type missPin func(tb testing.TB, rounds int) (rt *pm2.Runtime, node, warm int, op func(th *pm2.Thread, i int), check func())

// pinHarness is a machine of nodes nodes under proto with one page homed on
// node 0 and one lock managed there.
func pinHarness(tb testing.TB, nodes int, proto string) (rt *pm2.Runtime, d *core.DSM, base core.Addr, lock int) {
	rt = pm2.NewRuntime(pm2.Config{Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 1})
	reg, _ := NewRegistry()
	d = core.New(rt, reg)
	id, ok := reg.Lookup(proto)
	if !ok {
		tb.Fatalf("protocol %q not registered", proto)
	}
	d.SetDefaultProtocol(id)
	return rt, d, d.MustMalloc(0, core.PageSize, nil), d.NewLock(0)
}

// benchPin runs warm+b.N rounds of pin in a thread and times the last b.N.
func benchPin(b *testing.B, pin missPin) {
	rt, node, warm, op, check := pin(b, b.N)
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
	if check != nil {
		check()
	}
}

// TestMissPathAllocationPins holds every miss-path pin at 0 allocations per
// operation: testing.AllocsPerRun over 100 rounds (after one more) that
// follow the pin's warm-up, in the measuring thread. Under -race the rounds
// and the pins' checks still run, but the count is not held: the detector's
// instrumentation allocates in the outbox flushes (1 and 2 objects per
// operation at the parent commit's benchmarks too).
func TestMissPathAllocationPins(t *testing.T) {
	for _, c := range []struct {
		name string
		pin  missPin
	}{
		{"RemoteLockSection", remoteLockSection},
		{"ContendedLockSection", contendedLockSection},
		{"WriteFaultInvalidate", writeFaultInvalidate},
		{"ReadFaultFetch", readFaultFetch},
		{"ReadFaultStepInstall/free", readFaultStepInstall(false)},
		{"ReadFaultStepInstall/held", readFaultStepInstall(true)},
		{"ReleaseFlushOneDiff", releaseFlushOneDiff},
		{"BatchFlushTwoDests", batchFlushTwoDests},
	} {
		t.Run(c.name, func(t *testing.T) {
			const rounds = 100
			rt, node, warm, op, check := c.pin(t, rounds+1)
			allocs := -1.0
			rt.CreateThread(node, "pinned", func(th *pm2.Thread) {
				i := 0
				for ; i < warm; i++ {
					op(th, i)
				}
				allocs = testing.AllocsPerRun(rounds, func() {
					op(th, i)
					i++
				})
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if check != nil {
				check()
			}
			if allocs != 0 && !raceEnabled {
				t.Fatalf("%v allocations per operation, pinned at 0", allocs)
			}
		})
	}
}

// fillPhaseBudget caps the objects the readFaultFetch pin's warm-up allocates
// from a cold machine: 4 200 read faults, the first 4 096 of which fill the
// fault-timing ring. Timing records come in chunks, one per 18 faults, so the
// fill measures 290 objects (up to 299 in 200 runs, as the Go runtime reuses
// goroutine descriptors or not) where one record per fault made 4 162. Like
// panicBudget, it may only go down.
const fillPhaseBudget = 320

// TestFillPhaseAllocationBudget holds the fill phase of a cold 2-node li_hudak
// machine to fillPhaseBudget objects. Under -race the count is not held (see
// TestMissPathAllocationPins).
func TestFillPhaseAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rt, node, warm, op, _ := readFaultFetch(t, 0)
	var allocs uint64
	rt.CreateThread(node, "pinned", func(th *pm2.Thread) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < warm; i++ {
			op(th, i)
		}
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > fillPhaseBudget {
		t.Fatalf("%d read faults from cold allocated %d objects, over the budget of %d", warm, allocs, fillPhaseBudget)
	}
	t.Logf("%d read faults from cold: %d objects", warm, allocs)
}

// BenchmarkRemoteLockSection is an uncontended Acquire + Release of a lock
// managed on another node — two RPCs, two quick handlers, the acquire and
// release hooks of a protocol with nothing to do. Pinned at 0 allocs/op.
func BenchmarkRemoteLockSection(b *testing.B) { benchPin(b, remoteLockSection) }

func remoteLockSection(tb testing.TB, _ int) (*pm2.Runtime, int, int, func(*pm2.Thread, int), func()) {
	rt, d, _, lock := pinHarness(tb, 2, "li_hudak")
	return rt, 1, 64, func(th *pm2.Thread, _ int) {
		d.Acquire(th, lock)
		d.Release(th, lock)
	}, nil
}

// BenchmarkContendedLockSection is two nodes taking turns at a lock managed
// on a third: each acquire finds the lock held by the other node, so the
// manager keeps it and the other's release answers it — no handler thread,
// waiter record or grant channel. Pinned at 0 allocs/op.
func BenchmarkContendedLockSection(b *testing.B) { benchPin(b, contendedLockSection) }

func contendedLockSection(tb testing.TB, rounds int) (*pm2.Runtime, int, int, func(*pm2.Thread, int), func()) {
	rt, d, _, lock := pinHarness(tb, 3, "li_hudak")
	section := func(th *pm2.Thread) {
		d.Acquire(th, lock)
		th.Advance(10 * sim.Microsecond)
		d.Release(th, lock)
	}
	const warm = 64
	rt.CreateThread(2, "rival", func(th *pm2.Thread) {
		for i := 0; i < warm+rounds; i++ {
			section(th)
		}
	})
	return rt, 1, warm, func(th *pm2.Thread, _ int) { section(th) }, func() {
		if st := d.Stats(); st.Acquires != 2*int64(warm+rounds) {
			tb.Fatalf("%d acquires, want %d", st.Acquires, 2*(warm+rounds))
		}
	}
}

// BenchmarkWriteFaultInvalidate is a li_hudak write fault that invalidates two
// readers' copies: one thread reads the page on nodes 2 and 3, then writes it
// from node 0 or 1 in turn, so the write request always reaches the other of
// the two, whose page server invalidates both copies and collects the acks on
// its own reply queue before handing over ownership. Pinned at 0 allocs/op
// once the warm-up is past the fault-timing ring's fill, which makes one chunk
// of records per 18 faults: the readers' next fetches refill the copyset
// TakeCopyset emptied inside its inline word.
func BenchmarkWriteFaultInvalidate(b *testing.B) { benchPin(b, writeFaultInvalidate) }

func writeFaultInvalidate(tb testing.TB, rounds int) (*pm2.Runtime, int, int, func(*pm2.Thread, int), func()) {
	rt, d, base, _ := pinHarness(tb, 4, "li_hudak")
	op := func(th *pm2.Thread, i int) {
		th.MigrateTo(2)
		d.ReadUint64(th, base)
		th.MigrateTo(3)
		d.ReadUint64(th, base)
		th.MigrateTo(1 - i%2)
		d.WriteUint64(th, base, uint64(i))
	}
	return rt, 1, 1500, op, func() {
		if st := d.Stats(); st.Invalidations < 2*int64(rounds) {
			tb.Fatalf("%d invalidations for %d writes, want two each", st.Invalidations, rounds)
		}
	}
}

// BenchmarkReadFaultFetch is a li_hudak read fault with its page fetch: fault
// record, request RPC, read server, page transfer in a pooled buffer, install.
// The reader drops its copy after each read so the next one misses again.
// Pinned at 0 allocs/op: the warm-up passes the fault-timing ring's fill, one
// chunk of records per 18 faults, after which every fault reuses the record
// the ring evicts.
func BenchmarkReadFaultFetch(b *testing.B) { benchPin(b, readFaultFetch) }

func readFaultFetch(tb testing.TB, _ int) (*pm2.Runtime, int, int, func(*pm2.Thread, int), func()) {
	rt, d, base, _ := pinHarness(tb, 2, "li_hudak")
	pg := d.Space(0).PageOf(base)
	return rt, 1, 4200, func(th *pm2.Thread, _ int) {
		d.ReadUint64(th, base)
		d.Space(1).Drop(pg)
	}, nil
}

// BenchmarkReadFaultStepInstall is BenchmarkReadFaultFetch with its install
// watched. li_hudak installs by step, so the reader's node's installer installs
// the page. With the entry lock free that takes two steps: the installer's
// first wake, and the end of its CPU charge. With the lock held when the page
// arrives it takes three, the extra one being Unlock's hand-off: a second
// thread on the reader's node holds the lock for 300 us of every 1 ms round.
// Pinned at 0 allocs/op either way.
func BenchmarkReadFaultStepInstall(b *testing.B) {
	b.Run("free", func(b *testing.B) { benchPin(b, readFaultStepInstall(false)) })
	b.Run("held", func(b *testing.B) { benchPin(b, readFaultStepInstall(true)) })
}

func readFaultStepInstall(held bool) missPin {
	return func(tb testing.TB, rounds int) (*pm2.Runtime, int, int, func(*pm2.Thread, int), func()) {
		rt, d, base, _ := pinHarness(tb, 2, "li_hudak")
		pg := d.Space(0).PageOf(base)
		const warm, period = 4200, sim.Millisecond
		// Every round starts on a period boundary, so the holder takes the
		// lock after the reader's request left and before its page came.
		nextRound := func(th *pm2.Thread) { th.Advance(period - sim.Duration(th.Now())%period) }
		if held {
			rt.CreateThread(1, "holder", func(th *pm2.Thread) {
				e := d.Entry(1, pg)
				for i := 0; i < warm+rounds; i++ {
					th.Advance(20 * sim.Microsecond)
					e.Lock(th)
					th.Advance(300 * sim.Microsecond)
					e.Unlock(th)
					nextRound(th)
				}
			})
		}
		eng := rt.Engine()
		var steps uint64
		fastest, slowest := sim.Duration(period), sim.Duration(0)
		op := func(th *pm2.Thread, i int) {
			if i == warm {
				steps = eng.QueueStats().Steps
			}
			start := th.Now()
			d.ReadUint64(th, base)
			took := th.Now().Sub(start)
			if i >= warm {
				fastest, slowest = min(fastest, took), max(slowest, took)
			}
			d.Space(1).Drop(pg)
			nextRound(th)
		}
		return rt, 1, warm, op, func() {
			want, waited := uint64(2*rounds), slowest >= 300*sim.Microsecond
			if held {
				want, waited = uint64(3*rounds), fastest >= 300*sim.Microsecond
			}
			if got := eng.QueueStats().Steps - steps; got != want || waited != held {
				tb.Fatalf("%d installer steps for %d reads, want %d; reads took %v to %v", got, rounds, want, fastest, slowest)
			}
		}
	}
}

// BenchmarkReleaseFlushOneDiff is an hbrc_mw critical section that writes one
// word of a cached page and releases: write fault (twin in place), release
// hook, twin diff, one-diff outbox flush to the home, diff server, coalesced
// reply. Pinned at 0 allocs/op: the diff is a pooled record, refilled in
// place and freed by the home once its DiffServer returns. The warm-up passes
// the fault-timing ring's fill, as in BenchmarkReadFaultFetch.
func BenchmarkReleaseFlushOneDiff(b *testing.B) { benchPin(b, releaseFlushOneDiff) }

func releaseFlushOneDiff(tb testing.TB, _ int) (*pm2.Runtime, int, int, func(*pm2.Thread, int), func()) {
	rt, d, base, lock := pinHarness(tb, 2, "hbrc_mw")
	return rt, 1, 4200, func(th *pm2.Thread, i int) {
		d.Acquire(th, lock)
		d.WriteUint64(th, base, uint64(i+1))
		d.Release(th, lock)
	}, nil
}

// BenchmarkBatchFlushTwoDests is the outbox alone: a Batch of 2 destinations x
// (1 invalidation + 1 diff), flushed and acknowledged — flat list sort, two
// vector calls, six pooled records, two coalesced replies. Each round computes
// its diffs afresh: a queued diff is freed by the home. Pinned at 0 allocs/op.
func BenchmarkBatchFlushTwoDests(b *testing.B) { benchPin(b, batchFlushTwoDests) }

func batchFlushTwoDests(testing.TB, int) (*pm2.Runtime, int, int, func(*pm2.Thread, int), func()) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 3, Network: madeleine.BIPMyrinet, Seed: 1})
	d := core.New(rt, core.NewRegistry())
	d.SetDefaultProtocol(d.CreateProtocol(&core.Hooks{ProtoName: "sink", OnDiffServer: func(*core.DiffMsg) {}}))
	pg := d.Space(0).PageOf(d.MustMalloc(0, core.PageSize, nil))
	twin := make([]byte, 24)
	var curs [3][]byte
	for dest := 1; dest < 3; dest++ {
		curs[dest] = make([]byte, 24)
		curs[dest][8*dest] = byte(dest)
	}
	return rt, 0, 64, func(th *pm2.Thread, _ int) {
		batch := d.NewBatch(th)
		for dest := 1; dest < 3; dest++ {
			batch.Invalidate(dest, pg, -1)
			df := core.NewDiff(d)
			df.Compute(pg, twin, curs[dest], 0)
			batch.Diff(dest, df, false)
		}
		batch.Flush(true)
	}, nil
}
