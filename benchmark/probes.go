package main

import (
	"fmt"
	"sort"
	"time"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/bench"
	"dsmpm2/internal/isomalloc"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Layer probes: the benchmark's own loops over each layer's public
// functions, a ladder that adds one layer per rung (bare sim -> +madeleine
// -> +pm2 -> +core/protocols -> facade). Each probe builds its fixture
// untimed, times n operations, and reports the median of probeReps
// repetitions in host nanoseconds per operation; a layer's self cost in the
// ladder is its rung minus the rung below.
const (
	probeReps = 5
	probeRep  = 40 * time.Millisecond // at least this long per repetition
)

// A probe measures one number; each is recorded as a span.
type probe struct {
	name    string
	unit    string
	measure func() float64
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// timeRun times one simulation run.
func timeRun(run func() error) time.Duration {
	t0 := time.Now()
	must(run())
	return time.Since(t0)
}

// perOp makes a ladder probe of run, which performs n operations and reports
// how many it performed (some count simulated events or faults, not loop
// iterations) and how long the timed part took: it sizes n so that one
// repetition lasts at least probeRep, then measures the median nanoseconds
// per operation.
func perOp(run func(n int) (ops int, d time.Duration)) func() float64 {
	return func() float64 {
		n := 16
		for {
			_, d := run(n)
			if d >= probeRep {
				break
			}
			if d < probeRep/16 {
				n *= 8
			} else {
				n = int(float64(n)*float64(probeRep)/float64(d)*1.2) + 1
			}
		}
		return median(func() float64 {
			ops, d := run(n)
			return float64(d.Nanoseconds()) / float64(ops)
		})
	}
}

// median runs f probeReps times and returns the median result.
func median(f func() float64) float64 {
	vals := make([]float64, probeReps)
	for i := range vals {
		vals[i] = f()
	}
	sort.Float64s(vals)
	return vals[probeReps/2]
}

// pingPong builds a two-node system where threads on node 0 and node 1
// alternately write one page under one lock: every section finds the page
// (or, under migrate_thread, the thread) on the other node.
func pingPong(proto string) func() float64 {
	return perOp(func(n int) (int, time.Duration) {
		return pingPongRun(proto, n)
	})
}

func pingPongRun(proto string, n int) (sections int, d time.Duration) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Protocol: proto})
	page := sys.MustMalloc(0, dsmpm2.PageSize, nil)
	lock := sys.NewLock(0)
	sys.BindLock(lock, page, dsmpm2.PageSize) // entry consistency needs the binding; the others ignore it
	turn := sys.NewBarrier(2)
	for node := 0; node < 2; node++ {
		node := node
		sys.Spawn(node, fmt.Sprintf("pp%d", node), func(t *dsmpm2.Thread) {
			for i := 0; i < n; i++ {
				if i%2 == node {
					t.Acquire(lock)
					t.WriteUint64(page, t.ReadUint64(page)+1)
					t.Release(lock)
				}
				t.Barrier(turn)
			}
		})
	}
	return n, timeRun(sys.Run)
}

var probes = []probe{
	// Home workload tsp: the kernel.
	{"sim.ns_per_event", "ns", perOp(func(n int) (int, time.Duration) {
		return stormCost(bench.EventStorm(256, n/256+1))
	})},
	{"sim.ns_per_handoff", "ns", perOp(func(n int) (int, time.Duration) {
		// Two procs, one token: every hop parks one and unparks the other.
		eng := sim.NewEngine(1)
		var a, b sim.Chan
		eng.Go("ping", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				b.Push(i)
				a.Recv(p)
			}
		})
		eng.Go("pong", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				b.Recv(p)
				a.Push(i)
			}
		})
		return 2 * n, timeRun(eng.Run)
	})},
	{"sim.ns_per_timedwait", "ns", perOp(func(n int) (int, time.Duration) {
		// kvserve's idle tick: a 200 us receive deadline against a message
		// every 300 us, so waits alternately expire and are cancelled.
		eng := sim.NewEngine(1)
		var ch sim.Chan
		eng.Go("producer", func(p *sim.Proc) {
			for i := 0; i < n/2; i++ {
				p.Advance(300 * sim.Microsecond)
				ch.Push(i)
			}
		})
		waits := 0
		eng.Go("server", func(p *sim.Proc) {
			for got := 0; got < n/2; waits++ {
				if _, ok := ch.RecvTimeout(p, 200*sim.Microsecond); ok {
					got++
				}
			}
		})
		d := timeRun(eng.Run)
		return waits, d
	})},
	{"pm2.ns_per_migration", "ns", perOp(func(n int) (int, time.Duration) {
		rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Seed: 1})
		rt.CreateThreadStack(0, "wanderer", 1024, func(t *pm2.Thread) {
			for i := 0; i < n; i++ {
				t.MigrateTo(1 - t.Node())
			}
		})
		return n, timeRun(rt.Run)
	})},

	// Home workload jacobi: the hit path.
	{"memory.ns_per_access", "ns", perOp(func(n int) (int, time.Duration) {
		sp := memory.NewSpace(dsmpm2.PageSize)
		sp.SetAccess(1, memory.ReadWrite)
		base := sp.Base(1)
		var sum uint64
		t0 := time.Now()
		for i := 0; i < n; i++ {
			v, err := sp.ReadUint64(base + memory.Addr(8*(i%512)))
			must(err)
			sum += v
		}
		d := time.Since(t0)
		sink = sum
		return n, d
	})},
	{"core.ns_per_access", "ns", perOp(func(n int) (int, time.Duration) {
		// The same present-page read through the facade; minus
		// memory.ns_per_access it is the core + facade tax per access.
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
		base := sys.MustMalloc(0, dsmpm2.PageSize, nil)
		sys.Spawn(0, "reader", func(t *dsmpm2.Thread) {
			var sum uint64
			for i := 0; i < n; i++ {
				sum += t.ReadUint64(base + dsmpm2.Addr(8*(i%512)))
			}
			sink = sum
		})
		return n, timeRun(sys.Run)
	})},
	{"memory.ns_per_diff", "ns", perOp(func(n int) (int, time.Duration) {
		// Twin, dirty 64 of the page's 512 words, diff, apply at the home.
		page := make([]byte, dsmpm2.PageSize)
		home := make([]byte, dsmpm2.PageSize)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			twin := memory.MakeTwin(page)
			for w := 0; w < 64; w++ {
				page[64*w]++
			}
			memory.ApplyDiff(home, memory.ComputeDiff(1, twin, page, 8))
		}
		return n, time.Since(t0)
	})},
	{"core.ns_per_barrier", "ns", perOp(func(n int) (int, time.Duration) {
		const nodes = 16
		n = n/nodes + 1
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: nodes, Protocol: "hbrc_mw"})
		bar := sys.NewBarrier(nodes)
		for node := 0; node < nodes; node++ {
			sys.Spawn(node, fmt.Sprintf("b%d", node), func(t *dsmpm2.Thread) {
				for i := 0; i < n; i++ {
					t.Barrier(bar)
				}
			})
		}
		return n * nodes, timeRun(sys.Run)
	})},

	// Home workload kvserve: messaging, RPC, locks.
	{"madeleine.ns_per_msg", "ns", perOp(func(n int) (int, time.Duration) {
		eng := sim.NewEngine(1)
		nw := madeleine.NewNetwork(eng, madeleine.BIPMyrinet, 2)
		ch := nw.ChannelID("probe")
		for node := 0; node < 2; node++ {
			node := node
			eng.Go(fmt.Sprintf("peer%d", node), func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if node == 0 {
						nw.SendBulkID(0, 1, ch, dsmpm2.PageSize, nil)
					}
					nw.FreeMessage(nw.RecvID(p, node, ch))
					if node == 1 {
						nw.SendBulkID(1, 0, ch, dsmpm2.PageSize, nil)
					}
				}
			})
		}
		return 2 * n, timeRun(eng.Run)
	})},
	{"pm2.ns_per_rpc", "ns", perOp(func(n int) (int, time.Duration) { return nullRPC(n, false) })},
	{"pm2.ns_per_rpc_threaded", "ns", perOp(func(n int) (int, time.Duration) { return nullRPC(n, true) })},
	{"core.ns_per_lock", "ns", perOp(func(n int) (int, time.Duration) {
		// Uncontended acquire + release of a lock managed by the other node.
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2})
		lock := sys.NewLock(1)
		sys.Spawn(0, "locker", func(t *dsmpm2.Thread) {
			for i := 0; i < n; i++ {
				t.Acquire(lock)
				t.Release(lock)
			}
		})
		return n, timeRun(sys.Run)
	})},
	{"isomalloc.ns_per_alloc", "ns", perOp(func(n int) (int, time.Duration) {
		a := isomalloc.New(4, dsmpm2.PageSize)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r, err := a.Alloc(i%4, dsmpm2.PageSize)
			must(err)
			must(a.Free(r.Base))
		}
		return n, time.Since(t0)
	})},

	// Home workload faultstorm: the miss path, one protocol at a time. The
	// spread between protocols is policy cost over the shared toolbox.
	{"protocols.ns_per_fault.li_hudak", "ns", pingPong("li_hudak")},
	{"protocols.ns_per_fault.hbrc_mw", "ns", pingPong("hbrc_mw")},
	{"protocols.ns_per_fault.erc_sw", "ns", pingPong("erc_sw")},
	{"protocols.ns_per_fault.entry_mw", "ns", pingPong("entry_mw")},
	{"protocols.ns_per_fault.migrate_thread", "ns", pingPong("migrate_thread")},

	// ROADMAP item 2's decision input: does the parallel kernel pay on this
	// host's cores? 1000-proc storm, two shards over one.
	{"sim.sharded_speedup", "x", func() float64 {
		return median(func() float64 {
			return bench.EventStormSharded(1000, 60, 1).WallMS / bench.EventStormSharded(1000, 60, 2).WallMS
		})
	}},
	// Span recording: the same local reads (one span each) with
	// Config.Trace on and off.
	{"trace.ns_per_span", "ns", func() float64 {
		const reads = 500000
		run := func(traced bool) time.Duration {
			sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1, Trace: traced})
			base := sys.MustMalloc(0, dsmpm2.PageSize, nil)
			sys.Spawn(0, "reader", func(t *dsmpm2.Thread) {
				for i := 0; i < reads; i++ {
					t.ReadUint64(base)
				}
			})
			return timeRun(sys.Run)
		}
		return median(func() float64 { return float64((run(true) - run(false)).Nanoseconds()) / reads })
	}},
	checkpointCapture, checkpointRestore, checkpointBytes,
	{"dsmpm2.new_us_per_node.16", "us", newPerNode(16)},
	{"dsmpm2.new_us_per_node.512", "us", newPerNode(512)},
}

// stormCost is what an internal/bench kernel scenario cost: events fired
// and host time.
func stormCost(r bench.KernelResult) (events int, d time.Duration) {
	return int(r.Events), time.Duration(r.WallMS * float64(time.Millisecond))
}

func newPerNode(nodes int) func() float64 {
	return func() float64 {
		return median(func() float64 {
			t0 := time.Now()
			dsmpm2.MustNew(dsmpm2.Config{Nodes: nodes})
			return time.Since(t0).Seconds() * 1e6 / float64(nodes)
		})
	}
}

var sink uint64

func nullRPC(n int, threaded bool) (int, time.Duration) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Seed: 1})
	rt.Node(1).Register("null", threaded, func(h *pm2.Thread, arg interface{}) interface{} { return nil })
	rt.CreateThread(0, "caller", func(t *pm2.Thread) {
		for i := 0; i < n; i++ {
			t.Call(1, "null", nil, 0, 0)
		}
	})
	return n, timeRun(rt.Run)
}

// The checkpoint probes time a jacobi session's checkpoint at a mid-run safe
// point: capture = Checkpoint + Encode, restore = DecodeCheckpoint +
// ResumeSession, and the encoded size. They run in this order: capture
// leaves the blob the other two read.
var (
	checkpointBlob []byte

	checkpointCapture = probe{"dsmpm2.ckpt_capture_ms", "ms", func() float64 {
		sess, err := jacobi.NewSession(jacobi.Config{
			Nodes: 16, N: 128, Iterations: 8, Protocol: "hbrc_mw", Network: dsmpm2.BIPMyrinet, Seed: 1,
		})
		must(err)
		for sess.StepsDone() < sess.Steps()/2 {
			must(sess.Step())
		}
		return median(func() float64 {
			t0 := time.Now()
			ck, err := sess.Checkpoint()
			must(err)
			checkpointBlob, err = ck.Encode()
			must(err)
			return time.Since(t0).Seconds() * 1e3
		})
	}}
	checkpointRestore = probe{"dsmpm2.ckpt_restore_ms", "ms", func() float64 {
		return median(func() float64 {
			t0 := time.Now()
			ck, err := dsmpm2.DecodeCheckpoint(checkpointBlob)
			must(err)
			_, err = jacobi.ResumeSession(ck)
			must(err)
			return time.Since(t0).Seconds() * 1e3
		})
	}}
	checkpointBytes = probe{"dsmpm2.ckpt_bytes", "bytes", func() float64 { return float64(len(checkpointBlob)) }}
)

// runProbes runs every layer probe in this (fresh) process, one span each.
func runProbes() row {
	r := row{Workload: modeProbes, Probes: make(map[string]float64)}
	var spans spanLog
	for _, p := range probes {
		id := spans.begin(p.name, 0)
		r.Probes[p.name] = p.measure()
		spans.end(id)
	}
	r.Spans = spans.spans
	return r
}
