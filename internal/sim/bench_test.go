package sim

import "testing"

// The kernel's hot-path contract: scheduling and firing wake records
// allocates nothing. go test -bench . -benchmem must show 0 allocs/op for
// the three benchmarks below (a handful of warm-up allocations — bucket
// rings, queue growth — amortize to zero over the run).

// BenchmarkAdvanceSelfWake measures the uncontended Advance cycle: the proc
// schedules its own wake, finds that record at the head of the calendar and
// keeps running — zero coroutine switches, zero allocations.
func BenchmarkAdvanceSelfWake(b *testing.B) {
	e := NewEngine(1)
	e.Go("w", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWakeHandoff measures the cross-proc wake: two procs ping-pong
// through channels, so every iteration is two parks, two unpark wake records
// and two round trips between the event loop and a coroutine.
func BenchmarkWakeHandoff(b *testing.B) {
	e := NewEngine(1)
	ping, pong := new(Chan), new(Chan)
	token := new(int) // a pointer payload boxes without allocating
	e.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Push(token)
			pong.Recv(p)
		}
	})
	e.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Recv(p)
			pong.Push(token)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulePush measures the typed message-delivery path the network
// layer uses: a push record per send, drained by a blocked receiver.
func BenchmarkSchedulePush(b *testing.B) {
	e := NewEngine(1)
	ch := new(Chan)
	payload := new(int)
	e.Go("recv", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ch.Recv(p)
		}
	})
	e.Go("send", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.SchedulePush(e.Now().Add(Microsecond), ch, payload)
			p.Advance(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnExit measures a whole proc lifecycle on the bare kernel: one
// proc spawns a short-lived child per iteration, and each child runs on the
// worker its predecessor left idle — a Proc allocation and a coroutine round
// trip, no coroutine creation.
func BenchmarkSpawnExit(b *testing.B) {
	e := NewEngine(1)
	e.Go("parent", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Go("child", func(c *Proc) {})
			p.Advance(Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
