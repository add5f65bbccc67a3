package dsmpm2_test

import (
	"runtime"
	"testing"

	"dsmpm2/internal/apps/kvstore"
)

// TestFinishedSystemRetainsNoThreads: a process that runs many simulations
// (tune's worker pool, CI) must get a finished System's memory back. The
// serve trace creates about one handler thread per request — the page
// servers' (dsm.request) and the diff servers' that its faults and releases
// start; its lock requests run on quick handlers, which make no threads. The
// runtime used to keep every handler thread reachable from its thread list
// (and through them their procs and wake channels), which the daemon
// goroutines a finished System leaves parked then pinned for the life of the
// process — 127 MB for the benchmark's 120 000-request run, 21 MB for this
// one. What may stay is the parked server threads' own state: the engine, the
// node tables, the pools (recycled handler descriptors among them).
func TestFinishedSystemRetainsNoThreads(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	const requests = 20000
	res, err := kvstore.Run(kvstore.Config{
		Nodes: 8, Buckets: 16, Keys: 512,
		Requests: requests, Epochs: 8, Phases: 64,
		MisplaceHomes: true, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	threads := res.System.Runtime().ThreadCount()
	if perReq := float64(threads) / requests; perReq < 0.9 {
		t.Fatalf("the trace created %d threads, %.2f per request; it no longer exercises handler-thread churn", threads, perReq)
	}
	res = kvstore.Result{} // drop the System
	after := heap()
	const limit = 8 << 20
	if after > before && after-before > limit {
		t.Fatalf("%d threads left %.1f MB reachable after the System was dropped, limit %d MB",
			threads, float64(after-before)/(1<<20), limit>>20)
	}
}
