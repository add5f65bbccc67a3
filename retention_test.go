package dsmpm2_test

import (
	"runtime"
	"testing"

	"dsmpm2/internal/apps/kvstore"
)

// TestFinishedSystemRetainsNoThreads: a process that runs many simulations
// (tune's worker pool, CI) must get a finished System's memory back. The
// serve trace creates three handler threads per request; the runtime used to
// keep every one of them reachable from its thread list (and through them
// their procs and wake channels), which the daemon goroutines a finished
// System leaves parked then pinned for the life of the process — 127 MB for
// the benchmark's 120 000-request run, 21 MB for this one. What may stay is
// the parked server threads' own state: the engine, the node tables, the
// pools (recycled handler descriptors among them).
func TestFinishedSystemRetainsNoThreads(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	res, err := kvstore.Run(kvstore.Config{
		Nodes: 8, Buckets: 16, Keys: 512,
		Requests: 20000, Epochs: 8, Phases: 64,
		MisplaceHomes: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	threads := res.System.Runtime().ThreadCount()
	if threads < 2*20000 {
		t.Fatalf("the trace created %d threads; it no longer exercises handler-thread churn", threads)
	}
	res = kvstore.Result{} // drop the System
	after := heap()
	const limit = 8 << 20
	if after > before && after-before > limit {
		t.Fatalf("%d threads left %.1f MB reachable after the System was dropped, limit %d MB",
			threads, float64(after-before)/(1<<20), limit>>20)
	}
}
