package dsmpm2_test

import (
	"runtime"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/kvstore"
	"dsmpm2/internal/apps/tsp"
)

// TestFinishedSystemRetainsNoThreads: a process that runs many simulations
// (tune's worker pool, CI) must get a finished System's memory back, and its
// goroutines. Nothing of a System outlives Run: every RPC service is bound to
// its queue and runs its handlers on threads that return, so no coroutine is
// left parked to keep the engine — and through it pages, threads, pools and
// procs — reachable. jacobi is the workload whose pages a parked coroutine
// pinned most. The kvstore trace creates about one handler thread per request
// (0.97) — the page servers' (dsm.request) and the diff servers' that its
// faults and releases start; its page installs run on the nodes' installers
// and its lock requests on quick handlers, neither of which makes threads.
func TestFinishedSystemRetainsNoThreads(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	cases := []struct {
		name string
		run  func(t *testing.T) *dsmpm2.System
	}{
		{"jacobi", func(t *testing.T) *dsmpm2.System {
			res, err := jacobi.Run(jacobi.Config{Nodes: 16, N: 256, Iterations: 10, Protocol: "hbrc_mw", Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			return res.System
		}},
		{"tsp", func(t *testing.T) *dsmpm2.System {
			res, err := tsp.Run(tsp.Config{Cities: 10, Nodes: 8, Seed: 42, Protocol: "li_hudak"})
			if err != nil {
				t.Fatal(err)
			}
			return res.System
		}},
		{"kvstore", func(t *testing.T) *dsmpm2.System {
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
			if perReq := float64(threads) / requests; perReq < 0.85 {
				t.Errorf("the trace created %d threads, %.2f per request; it no longer exercises handler-thread churn", threads, perReq)
			}
			return res.System
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before, goroutines := heap(), runtime.NumGoroutine()
			sys := c.run(t)
			threads := sys.Runtime().ThreadCount()
			sys = nil // drop the System
			after := heap()
			if n := runtime.NumGoroutine(); n != goroutines {
				t.Errorf("%d goroutines outlive the finished System (%d before it, %d after)", n-goroutines, goroutines, n)
			}
			const limit = 1 << 20
			if after > before && after-before > limit {
				t.Fatalf("%d threads left %.2f MB reachable after the System was dropped, limit %d MB",
					threads, float64(after-before)/(1<<20), limit>>20)
			}
		})
	}
}
