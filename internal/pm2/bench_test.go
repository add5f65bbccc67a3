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
