package bench

// Wall-clock benchmarks of the simulator itself (the "kernel" experiment).
// Unlike the rest of this package, which reproduces the paper's *virtual*
// latencies, these scenarios measure how fast and how allocation-lean the
// simulation kernel runs on the host: events per wall-clock second, heap
// churn per event, and peak heap footprint. They feed the BENCH_kernel.json
// snapshot and the root BenchmarkKernel* entries.

import (
	"fmt"
	"runtime"
	"time"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/matmul"
	"dsmpm2/internal/apps/tsp"
	"dsmpm2/internal/sim"
)

// KernelResult is one wall-clock measurement of the simulation kernel.
type KernelResult struct {
	Name string `json:"name"`
	// Events is the number of simulation events the engine fired.
	Events uint64 `json:"events"`
	// WallMS is the host time the scenario took, in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// EventsPerSec is the kernel's throughput: Events / wall seconds.
	EventsPerSec float64 `json:"events_per_sec"`
	// Allocs and AllocBytes are the heap allocations (count and bytes)
	// performed during the scenario; AllocsPerEvent normalizes.
	Allocs         uint64  `json:"allocs"`
	AllocBytes     uint64  `json:"alloc_bytes"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// PeakHeapBytes is the largest HeapInuse observed during the scenario
	// (sampled every few milliseconds, after a scenario-entry GC), i.e. a
	// per-scenario peak rather than a process-cumulative footprint.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// VirtualMS is the simulated time covered, for scale context.
	VirtualMS float64 `json:"virtual_ms"`
	// Threads is the number of simulated threads the scenario created.
	Threads int `json:"threads"`
	// Queue is the kernel's traffic by shape (pushes at the current instant,
	// opening a run, joining one; deadline records; peak heap length;
	// coroutine resumes, self-wakes, idle re-arms and sink drains). Rows
	// measured before the counters existed have none.
	Queue *sim.QueueStats `json:"queue,omitempty"`
}

// measure runs one scenario under MemStats bracketing and a wall clock. A
// sampler goroutine tracks the scenario's peak HeapInuse; the 5 ms interval
// keeps the stop-the-world cost of ReadMemStats negligible next to the
// scenarios' 10-500 ms runtimes.
func measure(name string, run func() (events uint64, virtualMS float64, threads int, queue sim.QueueStats)) KernelResult {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var peak uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapInuse > peak {
					peak = ms.HeapInuse
				}
			}
		}
	}()
	start := time.Now()
	events, virtualMS, threads, queue := run()
	wall := time.Since(start)
	close(stop)
	<-done
	runtime.ReadMemStats(&after)
	if after.HeapInuse > peak {
		peak = after.HeapInuse
	}
	r := KernelResult{
		Name:          name,
		Events:        events,
		WallMS:        float64(wall.Nanoseconds()) / 1e6,
		Allocs:        after.Mallocs - before.Mallocs,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		PeakHeapBytes: peak,
		VirtualMS:     virtualMS,
		Threads:       threads,
		Queue:         &queue,
	}
	if secs := wall.Seconds(); secs > 0 {
		r.EventsPerSec = float64(events) / secs
	}
	if events > 0 {
		r.AllocsPerEvent = float64(r.Allocs) / float64(events)
	}
	return r
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

// TraceFingerprint hashes every recorded fault timing of a finished system,
// plus the final virtual clock, into a hex digest. Two runs of the same
// workload under the same seed must produce identical fingerprints; the
// golden-trace test pins a digest captured before the kernel rewrite to prove
// the rewrite preserved virtual-time behaviour bit for bit.
func TraceFingerprint(sys *dsmpm2.System) string { return sys.Fingerprint() }
