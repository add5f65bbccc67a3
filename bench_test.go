package dsmpm2_test

// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 4). Times are virtual: each benchmark reports the simulated
// microseconds or milliseconds of the measured operation via ReportMetric,
// alongside the usual wall-clock numbers for the simulator itself.
//
//	BenchmarkMicroRPC            Section 2.1  null RPC latency
//	BenchmarkMicroMigration      Section 2.1  thread migration latency
//	BenchmarkTable3ReadFaultPage Table 3      read fault, page policy
//	BenchmarkTable4ReadFaultMig  Table 4      read fault, migration policy
//	BenchmarkFigure4TSP          Figure 4     TSP protocol comparison
//	BenchmarkFigure5MapColoring  Figure 5     java_ic vs java_pf
//	BenchmarkAblation*           DESIGN.md    design-choice ablations
//	BenchmarkThreadReadUint64Hit DESIGN.md    host cost of a present-page access
//	BenchmarkThreadWriteUint64Hit DESIGN.md   host cost of a writable-page store
//	BenchmarkThreadReadHit       DESIGN.md    host cost of a one-page span hit

import (
	"fmt"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/lu"
	"dsmpm2/internal/apps/mapcolor"
	"dsmpm2/internal/apps/matmul"
	"dsmpm2/internal/apps/tsp"
	"dsmpm2/internal/bench"
)

// BenchmarkMicroRPC measures the null RPC round trip on each network
// (paper: 8us BIP/Myrinet, 6us SISCI/SCI).
func BenchmarkMicroRPC(b *testing.B) {
	for _, prof := range dsmpm2.Networks {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				us = bench.NullRPC(prof)
			}
			b.ReportMetric(us, "virtual-us/op")
		})
	}
}

// BenchmarkMicroMigration measures minimal-thread migration on each network
// (paper: 75us BIP/Myrinet, 62us SISCI/SCI).
func BenchmarkMicroMigration(b *testing.B) {
	for _, prof := range dsmpm2.Networks {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			var us float64
			for i := 0; i < b.N; i++ {
				us = bench.Migration(prof)
			}
			b.ReportMetric(us, "virtual-us/op")
		})
	}
}

// BenchmarkTable3ReadFaultPage measures the full remote read fault under the
// page-migration policy (li_hudak) and reports the paper's breakdown.
func BenchmarkTable3ReadFaultPage(b *testing.B) {
	for _, prof := range dsmpm2.Networks {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			var ft *dsmpm2.FaultTiming
			for i := 0; i < b.N; i++ {
				ft = bench.ReadFaultPage(prof)
			}
			b.ReportMetric(ft.Detect.Microseconds(), "fault-us")
			b.ReportMetric(ft.Request.Microseconds(), "request-us")
			b.ReportMetric(ft.Transfer.Microseconds(), "transfer-us")
			b.ReportMetric(ft.ProtocolOverhead().Microseconds(), "overhead-us")
			b.ReportMetric(ft.Total.Microseconds(), "total-us")
		})
	}
}

// BenchmarkTable4ReadFaultMig measures the remote read fault under the
// thread-migration policy (migrate_thread).
func BenchmarkTable4ReadFaultMig(b *testing.B) {
	for _, prof := range dsmpm2.Networks {
		prof := prof
		b.Run(prof.Name, func(b *testing.B) {
			var ft *dsmpm2.FaultTiming
			for i := 0; i < b.N; i++ {
				ft = bench.ReadFaultMigrate(prof)
			}
			b.ReportMetric(ft.Detect.Microseconds(), "fault-us")
			b.ReportMetric(ft.Migration.Microseconds(), "migration-us")
			b.ReportMetric(ft.Overhead.Microseconds(), "overhead-us")
			b.ReportMetric(ft.Total.Microseconds(), "total-us")
		})
	}
}

// BenchmarkFigure4TSP runs the TSP comparison of Figure 4: four protocols,
// one thread per node, BIP/Myrinet. The reported virtual-ms is the
// application run time; the page-based protocols should beat migrate_thread.
func BenchmarkFigure4TSP(b *testing.B) {
	const cities = 10
	for _, proto := range []string{"li_hudak", "erc_sw", "hbrc_mw", "migrate_thread"} {
		for _, nodes := range []int{2, 4} {
			name := fmt.Sprintf("%s/nodes=%d", proto, nodes)
			proto, nodes := proto, nodes
			b.Run(name, func(b *testing.B) {
				var elapsed dsmpm2.Time
				for i := 0; i < b.N; i++ {
					res, err := tsp.Run(tsp.Config{
						Cities: cities, Seed: 42, Nodes: nodes,
						Network: dsmpm2.BIPMyrinet, Protocol: proto,
					})
					if err != nil {
						b.Fatal(err)
					}
					elapsed = res.Elapsed
				}
				b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
			})
		}
	}
}

// BenchmarkFigure5MapColoring runs the Java consistency comparison of
// Figure 5: map coloring on 4 SISCI/SCI nodes, java_ic vs java_pf.
func BenchmarkFigure5MapColoring(b *testing.B) {
	for _, proto := range []string{"java_ic", "java_pf"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			var elapsed dsmpm2.Time
			for i := 0; i < b.N; i++ {
				res, err := mapcolor.Run(mapcolor.Config{
					Nodes: 4, ThreadsPerNode: 1,
					Network: dsmpm2.SISCISCI, Protocol: proto, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkKernelEventStorm measures the simulator's own wall-clock
// throughput (events per host second) on the scheduling-path storm: procs
// in a ring alternating virtual-time steps with token passes. The event
// counts are BENCH_kernel.json's; the host rate and allocations live here
// and in the benchmark/ ledger, apart from the paper's virtual latencies.
func BenchmarkKernelEventStorm(b *testing.B) {
	b.ReportAllocs()
	var r bench.KernelResult
	for i := 0; i < b.N; i++ {
		r = bench.EventStorm(64, 500)
	}
	reportEventRate(b, r)
}

// BenchmarkKernelEventStormSharded measures the parallel (sharded) kernel on
// the same storm at one and two shards, the pair the ledger's
// sim.sharded_speedup probe compares. The virtual schedule is identical at
// every shard count; only the host-core spread changes. The CI benchmark
// smoke (`-benchtime=1x`) uses this to prove the sharded kernel stays
// runnable, not to gate on wall-clock numbers.
func BenchmarkKernelEventStormSharded(b *testing.B) {
	for _, shards := range []int{1, 2} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var r bench.KernelResult
			for i := 0; i < b.N; i++ {
				r = bench.EventStormSharded(256, 200, shards)
			}
			reportEventRate(b, r)
		})
	}
}

// BenchmarkKernelApps measures the wall-clock cost of the cluster-scale
// application scenarios of the kernel suite (one iteration each; dsmbench
// -exp kernel prints their exact event and queue counts).
func BenchmarkKernelApps(b *testing.B) {
	scenarios := []struct {
		name string
		run  func() bench.KernelResult
	}{
		{"jacobi16", func() bench.KernelResult { return bench.JacobiStorm(16, 32, 2) }},
		{"matmul16", func() bench.KernelResult { return bench.MatmulStorm(16, 16) }},
		{"tsp16", func() bench.KernelResult { return bench.TSPStorm(16, 9) }},
	}
	for _, sc := range scenarios {
		run := sc.run
		b.Run(sc.name, func(b *testing.B) {
			b.ReportAllocs()
			var r bench.KernelResult
			for i := 0; i < b.N; i++ {
				r = run()
			}
			reportEventRate(b, r)
		})
	}
}

// reportEventRate reports the last run's events per host second.
func reportEventRate(b *testing.B, r bench.KernelResult) {
	b.ReportMetric(float64(r.Events)/(r.WallMS/1e3), "events/sec")
}

// BenchmarkAblationJacobi compares sequential vs release consistency on the
// barrier-phased stencil, the ablation DESIGN.md calls out for the hbrc_mw
// twin/diff design.
func BenchmarkAblationJacobi(b *testing.B) {
	for _, proto := range []string{"li_hudak", "erc_sw", "hbrc_mw"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			var elapsed dsmpm2.Time
			for i := 0; i < b.N; i++ {
				res, err := jacobi.Run(jacobi.Config{
					N: 16, Iterations: 4, Nodes: 4,
					Network: dsmpm2.BIPMyrinet, Protocol: proto, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkAblationMatmul measures pure read-sharing replication cost across
// protocols (no write sharing at all).
func BenchmarkAblationMatmul(b *testing.B) {
	for _, proto := range []string{"li_hudak", "hbrc_mw", "migrate_thread"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			var elapsed dsmpm2.Time
			for i := 0; i < b.N; i++ {
				res, err := matmul.Run(matmul.Config{
					N: 12, Nodes: 4,
					Network: dsmpm2.BIPMyrinet, Protocol: proto, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkAblationLU measures the pivot-broadcast sharing pattern of the
// blocked LU kernel across protocols: one freshly written row is read by
// every node at each elimination step.
func BenchmarkAblationLU(b *testing.B) {
	for _, proto := range []string{"li_hudak", "erc_sw", "hbrc_mw"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			var elapsed dsmpm2.Time
			for i := 0; i < b.N; i++ {
				res, err := lu.Run(lu.Config{
					N: 12, Nodes: 4,
					Network: dsmpm2.BIPMyrinet, Protocol: proto, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				elapsed = res.Elapsed
			}
			b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkAblationStackSize shows the Section 4 caveat: migration cost (and
// with it migrate_thread's fault cost) grows with thread stack size.
func BenchmarkAblationStackSize(b *testing.B) {
	for _, stack := range []int{1 << 10, 16 << 10, 64 << 10} {
		stack := stack
		b.Run(fmt.Sprintf("stack=%dKiB", stack/1024), func(b *testing.B) {
			var took dsmpm2.Duration
			for i := 0; i < b.N; i++ {
				sys := dsmpm2.MustNew(dsmpm2.Config{
					Nodes: 2, Network: dsmpm2.BIPMyrinet, Protocol: "migrate_thread",
				})
				data := sys.MustMalloc(1, 8, nil)
				sys.SpawnStack(0, "w", stack, func(t *dsmpm2.Thread) {
					start := t.Now()
					t.WriteUint64(data, 1)
					took = t.Now().Sub(start)
				})
				if err := sys.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(took.Microseconds(), "virtual-us")
		})
	}
}

// BenchmarkProtocolRegistry exercises protocol creation/selection overhead
// (Table 2's registry path).
func BenchmarkProtocolRegistry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
		if len(sys.ProtocolNames()) < 6 {
			b.Fatal("built-ins missing")
		}
	}
}

// BenchmarkAblationFalseSharing measures the MRMW payoff: per-node counters
// that share one page, under per-node locks. Single-writer protocols
// ping-pong the page; hbrc_mw merges diffs at the home.
func BenchmarkAblationFalseSharing(b *testing.B) {
	for _, proto := range []string{"li_hudak", "erc_sw", "hbrc_mw"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			var elapsed dsmpm2.Time
			for i := 0; i < b.N; i++ {
				sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4, Protocol: proto})
				base := sys.MustMalloc(0, dsmpm2.PageSize, nil)
				locks := make([]int, 4)
				for n := range locks {
					locks[n] = sys.NewLock(0)
				}
				for n := 0; n < 4; n++ {
					n := n
					addr := base + dsmpm2.Addr(64*n)
					sys.Spawn(n, "w", func(t *dsmpm2.Thread) {
						for k := 0; k < 10; k++ {
							t.Acquire(locks[n])
							t.WriteUint64(addr, t.ReadUint64(addr)+1)
							t.Release(locks[n])
						}
					})
				}
				if err := sys.Run(); err != nil {
					b.Fatal(err)
				}
				elapsed = sys.Now()
			}
			b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkAblationManagerStrategy compares the Li & Hudak manager schemes
// on a rotating-writer workload where the owner keeps moving: probable-owner
// chains (li_hudak) vs manager indirection (li_fixed, li_central).
func BenchmarkAblationManagerStrategy(b *testing.B) {
	for _, proto := range []string{"li_hudak", "li_fixed", "li_central"} {
		proto := proto
		b.Run(proto, func(b *testing.B) {
			var elapsed dsmpm2.Time
			for i := 0; i < b.N; i++ {
				sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4, Protocol: proto})
				base := sys.MustMalloc(0, 8, nil)
				lock := sys.NewLock(0)
				for n := 0; n < 4; n++ {
					n := n
					sys.Spawn(n, "w", func(t *dsmpm2.Thread) {
						for k := 0; k < 10; k++ {
							t.Acquire(lock)
							t.WriteUint64(base, t.ReadUint64(base)+1)
							t.Release(lock)
						}
					})
				}
				if err := sys.Run(); err != nil {
					b.Fatal(err)
				}
				elapsed = sys.Now()
			}
			b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
		})
	}
}

// BenchmarkAblationEntryVsRC measures entry consistency's reduced
// synchronization scope: two independently-locked areas, with entry_mw
// annotating the lock-data association and hbrc_mw synchronizing everything
// at every release.
func BenchmarkAblationEntryVsRC(b *testing.B) {
	run := func(proto string, bind bool) dsmpm2.Time {
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 3, Protocol: proto})
		areaA := sys.MustMalloc(0, 8, nil)
		areaB := sys.MustMalloc(0, dsmpm2.PageSize, nil)
		lockA := sys.NewLock(0)
		lockB := sys.NewLock(0)
		if bind {
			sys.BindLock(lockA, areaA, 8)
			sys.BindLock(lockB, areaB, dsmpm2.PageSize)
		}
		for n := 1; n < 3; n++ {
			sys.Spawn(n, "w", func(t *dsmpm2.Thread) {
				for k := 0; k < 8; k++ {
					t.Acquire(lockA)
					t.WriteUint64(areaA, t.ReadUint64(areaA)+1)
					t.Release(lockA)
					t.Acquire(lockB)
					t.WriteUint64(areaB, t.ReadUint64(areaB)+1)
					t.Release(lockB)
				}
			})
		}
		if err := sys.Run(); err != nil {
			b.Fatal(err)
		}
		return sys.Now()
	}
	b.Run("entry_mw", func(b *testing.B) {
		var elapsed dsmpm2.Time
		for i := 0; i < b.N; i++ {
			elapsed = run("entry_mw", true)
		}
		b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
	})
	b.Run("hbrc_mw", func(b *testing.B) {
		var elapsed dsmpm2.Time
		for i := 0; i < b.N; i++ {
			elapsed = run("hbrc_mw", false)
		}
		b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
	})
}

// BenchmarkLoadBalancer measures the dynamic load balancer (Section 2.1's
// motivating use of preemptive migration) on an imbalanced compute load.
func BenchmarkLoadBalancer(b *testing.B) {
	for _, balance := range []bool{false, true} {
		name := "off"
		if balance {
			name = "on"
		}
		balance := balance
		b.Run(name, func(b *testing.B) {
			var elapsed dsmpm2.Time
			for i := 0; i < b.N; i++ {
				sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4})
				for w := 0; w < 8; w++ {
					t := sys.Spawn(0, "w", func(t *dsmpm2.Thread) {
						for c := 0; c < 20; c++ {
							t.Compute(dsmpm2.Millisecond)
						}
					})
					t.PM2().SetMigratable(true)
				}
				if balance {
					sys.Runtime().StartBalancer(500 * dsmpm2.Microsecond)
				}
				if err := sys.Run(); err != nil {
					b.Fatal(err)
				}
				elapsed = sys.Now()
			}
			b.ReportMetric(float64(elapsed)/1e6, "virtual-ms")
		})
	}
}

var hitSink uint64

// BenchmarkThreadReadUint64Hit is the host cost of one present-page word read
// through the whole stack with tracing off: Thread.ReadUint64 calls
// core.DSM.ReadUint64, into which memory.Space.LoadUint64 — the hit, with no
// error value — inlines; only a refusal would call on, to core's settle and
// memory.Space.Check. The real system pays nothing here (the MMU lets the
// load through), so this is pure simulator tax and what jacobi's host time is
// made of.
func BenchmarkThreadReadUint64Hit(b *testing.B) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	base := sys.MustMalloc(0, dsmpm2.PageSize, nil)
	sys.Spawn(0, "reader", func(t *dsmpm2.Thread) {
		var sum uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum += t.ReadUint64(base + dsmpm2.Addr(8*(i%512)))
		}
		b.StopTimer()
		hitSink = sum
	})
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkThreadWriteUint64Hit is the store beside it: one writable-page word
// write through Thread.WriteUint64 and core.DSM.WriteUint64, into which the
// memory.Space.StoreUint64 hit inlines.
func BenchmarkThreadWriteUint64Hit(b *testing.B) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	base := sys.MustMalloc(0, dsmpm2.PageSize, nil)
	sys.Spawn(0, "writer", func(t *dsmpm2.Thread) {
		t.WriteUint64(base, 0) // a first store may fault the page writable
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.WriteUint64(base+dsmpm2.Addr(8*(i%512)), uint64(i))
		}
		b.StopTimer()
	})
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkThreadReadHit is the host cost of one page read as a span hit:
// Thread.ReadHit over a whole present page, one rights check and one copy,
// against the 512 word reads BenchmarkThreadReadUint64Hit pays for it.
func BenchmarkThreadReadHit(b *testing.B) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	base := sys.MustMalloc(0, dsmpm2.PageSize, nil)
	hits := 0
	sys.Spawn(0, "reader", func(t *dsmpm2.Thread) {
		var buf [dsmpm2.PageSize]byte
		b.SetBytes(dsmpm2.PageSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if t.ReadHit(base, buf[:]) {
				hits++
			}
		}
		b.StopTimer()
	})
	if err := sys.Run(); err != nil {
		b.Fatal(err)
	}
	if hits != b.N {
		b.Fatalf("%d of %d page reads hit", hits, b.N)
	}
}
