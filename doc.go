// Package dsmpm2 is a Go reproduction of DSM-PM2, the portable
// implementation platform for multithreaded DSM consistency protocols of
// Antoniu and Bougé (IPDPS/HIPS 2001, INRIA RR-4108).
//
// DSM-PM2 provides the illusion of a common address space shared by all
// threads of a distributed multithreaded application, and — its real point —
// a generic toolbox on which consistency protocols are built out of 8 small
// routines (read/write fault handlers, read/write servers, invalidate and
// receive-page servers, lock acquire/release actions). The paper's six
// protocols ship built in, spanning sequential consistency (li_hudak,
// migrate_thread), release consistency (erc_sw, hbrc_mw) and Java
// consistency (java_ic, java_pf); this reproduction adds the hybrid and
// adaptive protocols the paper sketches in Section 2.3, the fixed and
// centralized Li & Hudak manager variants its page manager was designed for
// (li_fixed, li_central), and Midway-style entry consistency (entry_mw).
//
// The original system runs on Linux clusters and detects shared accesses
// with mprotect; here every shared access goes through a software MMU
// instead (internal/memory: a shift-indexed page table per node, so an
// access to a present page costs a few host nanoseconds and no virtual
// time). This reproduction runs the whole platform — PM2 threads,
// the Madeleine communication library, RPC, iso-address allocation, thread
// migration and the DSM core — on a deterministic discrete-event simulator
// whose network profiles are calibrated to the paper's measured latencies
// (BIP/Myrinet, TCP/Myrinet, TCP/Fast Ethernet, SISCI/SCI). See DESIGN.md
// for the substitution argument and EXPERIMENTS.md for paper-vs-measured
// results.
//
// Beyond the paper's uniform clusters, the communication stack resolves
// costs per (src,dst) link through the Topology in Config.Network: a
// NetworkProfile is the calibrated uniform case, HierarchicalTopology models
// multi-cluster machines (a fast intra-cluster profile, a slow backbone),
// and LinkMatrixTopology assigns arbitrary per-pair profiles for asymmetric
// scenarios. Config.LinkContention additionally serializes concurrent
// transfers FIFO per directed link, so saturated links exhibit queueing
// delay. Fault records attribute themselves to the link class their page
// transfer crossed (FaultTiming.Link, TimingLog.ByLink).
//
// Placement can adapt online: Config.AdaptiveHomes enables the
// sharing-pattern profiler, which counts faults, fetches and diffs per
// (page, node), folds them into epochs at cluster-wide barriers, classifies
// each page (private, read-shared, producer-consumer, migratory,
// falsely-shared), and re-homes pages onto their stable dominant writers via
// a handshake whose metadata update rides the barrier grant. The adaptive
// protocol consumes the same classifier to pick thread migration vs page
// policy per page. Stats.HomeMigrations/RemoteFetches/MisplacedFetches and
// System.ProfileEpochs expose the accounting; `dsmbench -exp adapt [-json]`
// runs the static-vs-adaptive placement experiment and writes
// BENCH_adapt.json. See DESIGN.md ("Access profiling & home migration").
//
// Serving-class workloads get per-operation latency accounting: a
// Histogram is a fixed-grid histogram over virtual-time durations
// (HDR-style log-spaced buckets, allocation-free Record), whose quantiles
// are upper bounds on a fixed seed-independent grid — deterministic,
// snapshot-safe, and bit-identical across replays. The internal kvstore app
// (a hash table sharded one-bucket-per-page under per-bucket entry_mw locks,
// driven by an open-loop Zipf trace with hot-key churn) keeps one per
// operation kind; `dsmbench -exp serve [-json]` runs its static-vs-adaptive placement
// experiment, asserts the adaptive p99 wins, and writes BENCH_serve.json.
// See DESIGN.md ("Serving workloads") and examples/kvstore.
//
// A System is one machine on one event loop: one sim.Engine, one
// madeleine.Network, one page directory, one set of counters. Copysets are
// bitmaps with an inline first word (internal/core NodeSet), so refilling an
// emptied one allocates nothing. DESIGN.md ("History") records the sharded
// stack and the interval copysets that were measured and removed.
//
// The platform also injects failures: a FaultPlan is a declarative,
// seed-driven schedule of node crashes/restarts, link partitions/heals and
// message loss, applied through System.InjectFaults. The network drops a
// dead node's traffic, queues a partitioned link's and retransmits what a
// lossy link loses; the DSM recovery manager re-homes a dead node's pages
// from the freshest surviving replica and wakes, at the crash instant, the
// protocol waits the crash strands; and crash-tolerant barriers
// (Thread.BarrierAs) let restarted workers rejoin mid-computation. Replays
// of the same seed and plan are bit-identical; see examples/faults and
// DESIGN.md ("Fault model & recovery").
//
// Because the replay is deterministic, a checkpoint records how to reach a
// step, not the state there: System.Checkpoint takes a small resume token
// (versioned, content-hashed: the config, the fault plan, the application's
// progress and a fingerprint of the run so far), and jacobi.ResumeSession
// replays the recorded steps and refuses the token unless the replay
// reaches that fingerprint. Crash-restart experiments warm-start restarted
// nodes from the last work unit the jacobi session recorded for them, and
// `dsmbench -exp bisect` binary-searches the first step
// whose fingerprint diverges from a reference ledger. See DESIGN.md
// ("Checkpoint/resume").
//
// Determinism also powers the what-if auto-tuner (internal/tune): run a
// workload under its baseline configuration, re-simulate the full
// {protocol x topology x placement} grid as parallel host-level runs
// (`dsmbench -exp tune [-json]`), and rank the cells by virtual elapsed
// time. See DESIGN.md ("Protocol auto-tuner").
//
// # Quick start
//
// Mirroring the paper's Figure 2 (selecting a built-in protocol and sharing
// an integer):
//
//	sys, _ := dsmpm2.New(dsmpm2.Config{Nodes: 4, Protocol: "li_hudak"})
//	x := sys.MustMalloc(0, 8, nil)
//	lock := sys.NewLock(0)
//	for n := 0; n < 4; n++ {
//		sys.Spawn(n, "worker", func(t *dsmpm2.Thread) {
//			t.Acquire(lock)
//			t.WriteUint64(x, t.ReadUint64(x)+1)
//			t.Release(lock)
//		})
//	}
//	sys.Run()
package dsmpm2
