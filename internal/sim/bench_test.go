package sim

import "testing"

// The kernel's hot-path contract: scheduling and firing wake records
// allocates nothing. go test -bench . -benchmem must show 0 allocs/op for
// every benchmark below but SpawnExit (a handful of warm-up allocations —
// event rings, queue growth — amortize to zero over the run).

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

// BenchmarkCalendarDistinctTimes measures the queue alone on the shape most
// real pushes have (QueueStats: 79-99.9 % of the future pushes of tsp,
// faultstorm and kvserve open a run): sixteen events in flight, every one at
// a time of its own, so each iteration is a heap insert and a pop that
// advances the clock. The lock-step shape is the root package's
// BenchmarkKernelEventStorm.
func BenchmarkCalendarDistinctTimes(b *testing.B) {
	e := NewEngine(1)
	p := new(Proc)
	const inFlight = 16
	for i := 1; i <= inFlight; i++ {
		e.scheduleWake(Time(i), p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.scheduleWake(e.now+inFlight+1, p)
		e.pop(e.head())
	}
}

// BenchmarkRecvTimeout measures a receive deadline that alternately expires
// and is cancelled by a message: per iteration one deadline record armed from
// the engine's pool, fired live or inert, and the parks and wakes around it,
// none of which may allocate.
func BenchmarkRecvTimeout(b *testing.B) {
	e := NewEngine(1)
	ch := new(Chan)
	token := new(int)
	e.Go("server", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ch.RecvTimeout(p, 100*Microsecond)
		}
	})
	e.Go("client", func(p *Proc) {
		for i := 0; i < b.N; i += 2 {
			p.Advance(150 * Microsecond) // mid-way through every second wait
			ch.Push(token)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestKernelAllocationPins holds two of the benchmarks above at 0
// allocations per round, measured by testing.AllocsPerRun (100 rounds after
// one more) in the proc whose rounds they are: BenchmarkWakeHandoff's
// ping-pong and BenchmarkRecvTimeout's deadline that alternately expires and
// is cancelled.
func TestKernelAllocationPins(t *testing.T) {
	const rounds, warm = 100, 16
	n := warm + rounds + 1
	token := new(int)
	for _, c := range []struct {
		name string
		// procs spawns the measured proc, whose round is op, and its peer.
		procs func(e *Engine, measure func(p *Proc, op func()))
	}{
		{"WakeHandoff", func(e *Engine, measure func(*Proc, func())) {
			ping, pong := new(Chan), new(Chan)
			e.Go("ping", func(p *Proc) { measure(p, func() { ping.Push(token); pong.Recv(p) }) })
			e.Go("pong", func(p *Proc) {
				for i := 0; i < n; i++ {
					ping.Recv(p)
					pong.Push(token)
				}
			})
		}},
		{"RecvTimeout", func(e *Engine, measure func(*Proc, func())) {
			ch := new(Chan)
			e.Go("server", func(p *Proc) { measure(p, func() { ch.RecvTimeout(p, 100*Microsecond) }) })
			e.Go("client", func(p *Proc) {
				for i := 0; i < n; i += 2 {
					p.Advance(150 * Microsecond)
					ch.Push(token)
				}
			})
		}},
	} {
		e := NewEngine(1)
		allocs := -1.0
		c.procs(e, func(p *Proc, op func()) {
			for i := 0; i < warm; i++ {
				op()
			}
			allocs = testing.AllocsPerRun(rounds, op)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per round, pinned at 0", c.name, allocs)
		}
	}
}
