package pm2

import "testing"

// BenchmarkThreadedRPC measures a synchronous null RPC to a threaded service:
// request, a handler thread created for it, reply. The spread over a
// non-threaded service's null RPC is the host cost of a thread's lifecycle
// (see TestHandlerThreadLifecycleAllocs for its allocations).
func BenchmarkThreadedRPC(b *testing.B) {
	rt := threadedNull(b)
	rt.CreateThread(0, "client", func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Call(1, "null", nil, 0, 0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestThreadedRPCAllocs pins BenchmarkThreadedRPC's round, a synchronous null
// RPC served by a handler thread, at 0 allocations.
func TestThreadedRPCAllocs(t *testing.T) {
	rt := threadedNull(t)
	allocs := -1.0
	rt.CreateThread(0, "client", func(th *Thread) {
		call := func() { th.Call(1, "null", nil, 0, 0) }
		for i := 0; i < 16; i++ {
			call()
		}
		allocs = testing.AllocsPerRun(100, call)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("a threaded null RPC allocates %v times, pinned at 0", allocs)
	}
}
