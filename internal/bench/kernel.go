package bench

// Benchmarks of the simulator itself (the "kernel" experiment). Unlike the
// rest of this package, which reproduces the paper's *virtual* latencies,
// these scenarios exercise the simulation kernel at scale: the events it
// fires, the threads it runs and the shape of its event-queue traffic, all
// exact per seed. They feed the BENCH_kernel.json snapshot, which holds only
// those counts; the root BenchmarkKernel* entries and the benchmark/ ledger
// time them on the host.

import (
	"fmt"
	"time"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/matmul"
	"dsmpm2/internal/apps/tsp"
	"dsmpm2/internal/sim"
)

// KernelResult is one run of a kernel scenario.
type KernelResult struct {
	Name string `json:"name"`
	// Events is the number of simulation events the engine fired.
	Events uint64 `json:"events"`
	// WallMS is the host time the scenario took, in milliseconds. It does
	// not repeat, so the snapshot leaves it out.
	WallMS float64 `json:"-"`
	// VirtualMS is the simulated time covered, for scale context.
	VirtualMS float64 `json:"virtual_ms"`
	// Threads is the number of simulated threads the scenario created.
	Threads int `json:"threads"`
	// Queue is the kernel's traffic by shape (pushes at the current instant,
	// opening a run, joining one; deadline records; peak heap length;
	// coroutine resumes, self-wakes, sink drains and call records).
	Queue sim.QueueStats `json:"queue"`
}

// measure runs one scenario under a wall clock.
func measure(name string, run func() (events uint64, virtualMS float64, threads int, queue sim.QueueStats)) KernelResult {
	start := time.Now()
	events, virtualMS, threads, queue := run()
	return KernelResult{
		Name:      name,
		Events:    events,
		WallMS:    float64(time.Since(start).Nanoseconds()) / 1e6,
		VirtualMS: virtualMS,
		Threads:   threads,
		Queue:     queue,
	}
}

// EventStorm hammers the kernel's dominant scheduling path with no DSM or
// network on top: procs simulated threads in a ring, each alternating a
// virtual-time step (Advance) with a token pass to its neighbour (Chan.Push /
// Chan.Recv). Because the ring is pre-seeded with tokens, receivers rarely
// park, so the event count is ~procs*hops timer wakes (plus spawn wakes and
// the occasional unpark when a receiver does outrun its sender) — the
// scenario isolates exactly the Schedule/wake path the kernel overhaul
// targets.
func EventStorm(procs, hops int) KernelResult {
	name := fmt.Sprintf("event-storm/procs=%d,hops=%d", procs, hops)
	return measure(name, func() (uint64, float64, int, sim.QueueStats) {
		eng := sim.NewEngine(1)
		chans := make([]*sim.Chan, procs)
		for i := range chans {
			chans[i] = new(sim.Chan)
			chans[i].Push(-1) // seed token so the ring flows
		}
		for i := 0; i < procs; i++ {
			i := i
			eng.Go(fmt.Sprintf("storm%d", i), func(p *sim.Proc) {
				next := chans[(i+1)%procs]
				for h := 0; h < hops; h++ {
					chans[i].Recv(p)
					p.Advance(sim.Microsecond)
					next.Push(i)
				}
			})
		}
		if err := eng.Run(); err != nil {
			panic(err)
		}
		return eng.Events(), float64(eng.Now()) / 1e6, procs, eng.QueueStats()
	})
}

// EventStormSharded is the event storm on the parallel kernel: procs ring
// threads partitioned into contiguous blocks, one block per shard, each block
// driven by its own event loop on its own goroutine (sim.ShardedEngine). Only
// the ring edges between blocks cross shards; every hand-off — local or
// remote — is scheduled at now+1µs, so the virtual schedule is identical for
// every shard count and runs differ only in how the work is spread over host
// cores. shards=1 degenerates to a single plain event loop, the serial side
// of the ledger's shards=1 / shards=2 ratio.
func EventStormSharded(procs, hops, shards int) KernelResult {
	if shards < 1 {
		shards = 1
	}
	if shards > procs {
		shards = procs
	}
	name := fmt.Sprintf("event-storm-sharded/procs=%d,hops=%d,shards=%d", procs, hops, shards)
	return measure(name, func() (uint64, float64, int, sim.QueueStats) {
		lat := sim.Microsecond // ring hop latency = inter-shard lookahead
		se := sim.NewShardedEngine(1, shards, lat)
		shardOf := func(i int) int { return i * shards / procs }
		chans := make([]*sim.Chan, procs)
		for i := range chans {
			chans[i] = new(sim.Chan)
			chans[i].Push(-1) // seed token so the ring flows
		}
		for i := 0; i < procs; i++ {
			i := i
			e := se.Shard(shardOf(i))
			e.Go(fmt.Sprintf("storm%d", i), func(p *sim.Proc) {
				next := (i + 1) % procs
				dst := shardOf(next)
				for h := 0; h < hops; h++ {
					chans[i].Recv(p)
					p.Advance(sim.Microsecond)
					e.SchedulePushShard(dst, p.Now().Add(lat), chans[next], i)
				}
			})
		}
		if err := se.Run(); err != nil {
			panic(err)
		}
		return se.Events(), float64(se.Now()) / 1e6, procs, se.QueueStats()
	})
}

// appStorm measures one application run at cluster scale: the events and
// threads of the finished system, and its virtual run time.
func appStorm(name string, run func() (*dsmpm2.System, dsmpm2.Time, error)) KernelResult {
	return measure(name, func() (uint64, float64, int, sim.QueueStats) {
		sys, elapsed, err := run()
		if err != nil {
			panic(err)
		}
		rt := sys.Runtime()
		return rt.Engine().Events(), float64(elapsed) / 1e6, rt.ThreadCount(), rt.Engine().QueueStats()
	})
}

// JacobiStorm runs the barrier-phased stencil at cluster scale and measures
// the simulator's wall-clock cost: nodes application threads plus the RPC
// server and handler threads the DSM runs under them.
func JacobiStorm(nodes, n, iterations int) KernelResult {
	return appStorm(fmt.Sprintf("jacobi/nodes=%d,n=%d,iters=%d", nodes, n, iterations), func() (*dsmpm2.System, dsmpm2.Time, error) {
		res, err := jacobi.Run(jacobi.Config{
			N: n, Iterations: iterations, Nodes: nodes,
			Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: 1,
		})
		return res.System, res.Elapsed, err
	})
}

// MatmulStorm runs the read-replication matrix multiply at cluster scale.
func MatmulStorm(nodes, n int) KernelResult {
	return appStorm(fmt.Sprintf("matmul/nodes=%d,n=%d", nodes, n), func() (*dsmpm2.System, dsmpm2.Time, error) {
		res, err := matmul.Run(matmul.Config{
			N: n, Nodes: nodes,
			Network: dsmpm2.BIPMyrinet, Protocol: "li_hudak", Seed: 3,
		})
		return res.System, res.Elapsed, err
	})
}

// TSPStorm runs the branch-and-bound search at cluster scale.
func TSPStorm(nodes, cities int) KernelResult {
	return appStorm(fmt.Sprintf("tsp/nodes=%d,cities=%d", nodes, cities), func() (*dsmpm2.System, dsmpm2.Time, error) {
		res, err := tsp.Run(tsp.Config{
			Cities: cities, Seed: 42, Nodes: nodes,
			Network: dsmpm2.BIPMyrinet, Protocol: "li_hudak",
		})
		return res.System, res.Elapsed, err
	})
}

// KernelSuite runs the standard kernel scenarios for BENCH_kernel.json: the
// event-storm microbench plus the three applications at 16-64 nodes.
func KernelSuite() []KernelResult {
	return []KernelResult{
		EventStorm(256, 2000),
		JacobiStorm(32, 64, 3),
		JacobiStorm(64, 64, 2),
		MatmulStorm(16, 24),
		TSPStorm(16, 10),
	}
}
