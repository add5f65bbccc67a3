package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// The edges of worker recycling (see worker in proc.go): a finished proc's
// coroutine is rebound to the next Spawn, so these pin the cases where the
// previous tenant could leak into the next, and what becomes of a coroutine
// whose proc is killed, panics or exits its goroutine.

// runWithin runs the engine and fails the test instead of hanging it if the
// run wedges.
func runWithin(t *testing.T, run func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run did not terminate")
		return nil
	}
}

// settledGoroutines reports the goroutine count once it stops exceeding want:
// idle workers are gone when Run returns, but the goroutine runWithin started
// and a sharded run's controllers signal just before they exit, so the count
// can trail by an instant.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// TestWorkerRebindWhileDriving: a closure event spawns a proc right after
// another finished. The idle worker on top of the LIFO is the finished proc's,
// so the new proc runs on the coroutine that has just yielded for good.
func TestWorkerRebindWhileDriving(t *testing.T) {
	e := NewEngine(1)
	var first, second *Proc
	ranAt := Time(-1)
	first = e.Go("first", func(p *Proc) {})
	e.Schedule(10, func() {
		second = e.Go("second", func(p *Proc) {
			p.Advance(5)
			ranAt = p.Now()
		})
	})
	if err := runWithin(t, e.Run); err != nil {
		t.Fatal(err)
	}
	if second.w != first.w {
		t.Fatal("second proc was not bound to the finished proc's worker; the test no longer covers the self-bound case")
	}
	if ranAt != 15 {
		t.Fatalf("second proc finished at %v, want 15", ranAt)
	}
	if e.Live() != 0 || e.idle.Len() != 0 {
		t.Fatalf("after Run: %d live procs, %d idle workers, want 0 and 0", e.Live(), e.idle.Len())
	}
}

// TestWorkerKilledProcAbandonsWorker: a proc killed before its first dispatch
// and a proc killed while parked never run, and their workers never come back
// to the idle list (their coroutines may be anywhere inside the proc's body);
// the run still terminates.
func TestWorkerKilledProcAbandonsWorker(t *testing.T) {
	e := NewEngine(1)
	ran := false
	early := e.Spawn("early", 100, func(p *Proc) { ran = true })
	parked := e.Go("parked", func(p *Proc) {
		p.Park("forever")
		ran = true
	})
	e.Go("survivor", func(p *Proc) { p.Advance(300) })
	e.Schedule(50, func() {
		early.Kill()
		parked.Kill()
	})
	var late *Proc
	e.Schedule(200, func() {
		if e.idle.Len() != 0 {
			t.Errorf("%d idle workers at t=200, want 0: a killed proc's worker was pooled", e.idle.Len())
		}
		late = e.Go("late", func(p *Proc) {})
	})
	if err := runWithin(t, e.Run); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("a killed proc ran")
	}
	if late.w == early.w || late.w == parked.w {
		t.Fatal("a proc was bound to a killed proc's worker")
	}
	if !late.Dead() || e.Now() != 300 {
		t.Fatalf("late done=%v, clock %v; want true, 300", late.Dead(), e.Now())
	}
}

// TestWorkerStaleRecordsSkipNewTenant: wake and timed-wait records of a
// finished proc that fire after its worker was rebound must not wake the new
// proc, although both procs share one worker.
func TestWorkerStaleRecordsSkipNewTenant(t *testing.T) {
	e := NewEngine(1)
	ch := new(Chan)
	var a, b *Proc
	wokeAt := Time(-1)
	a = e.Go("a", func(p *Proc) {
		// Delivered at t=10; the t=100 deadline record outlives the proc.
		if _, ok := ch.RecvTimeout(p, 100); !ok {
			t.Error("a timed out")
		}
	})
	e.SchedulePush(10, ch, 1)
	e.Schedule(15, func() {
		b = e.Go("b", func(p *Proc) {
			p.Park("gate") // a bare park: any wake at all resumes it
			wokeAt = p.Now()
		})
	})
	e.Schedule(20, func() { a.Unpark() }) // a bare wake record for the dead proc
	e.Schedule(200, func() { b.Unpark() })
	if err := runWithin(t, e.Run); err != nil {
		t.Fatal(err)
	}
	if b.w != a.w {
		t.Fatal("b was not bound to a's worker; the test no longer covers stale records")
	}
	if wokeAt != 200 {
		t.Fatalf("b woke at %v, want 200 (a stale record of a resumed it)", wokeAt)
	}
}

// TestWorkerGoroutinesBoundedByConcurrency: 10 000 short procs, each spawned
// by its predecessor, run on O(peak concurrency) goroutines, and Run returns
// with none of them left.
func TestWorkerGoroutinesBoundedByConcurrency(t *testing.T) {
	const procs = 10000
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	peak, ran := 0, 0
	var spawn func()
	spawn = func() {
		e.Go("short", func(p *Proc) {
			p.Advance(Microsecond)
			if g := runtime.NumGoroutine(); g > peak {
				peak = g
			}
			if ran++; ran < procs {
				spawn()
			}
		})
	}
	spawn()
	if err := runWithin(t, e.Run); err != nil {
		t.Fatal(err)
	}
	if ran != procs {
		t.Fatalf("%d procs ran, want %d", ran, procs)
	}
	// The Run goroutine (runWithin), the running proc and the worker its
	// predecessor left idle: a handful, however many procs there were.
	if peak > base+8 {
		t.Fatalf("goroutines peaked at %d over a baseline of %d for %d sequential procs", peak, base, procs)
	}
	if g := settledGoroutines(base); g > base {
		t.Fatalf("%d goroutines after Run, baseline %d: idle workers were not released", g, base)
	}
}

// TestShardedWorkerReuse is the same bound on a two-shard engine, shaped like
// a threaded RPC service: each shard's daemon server spawns a short handler
// proc per request, and the requests cross shards. Run under -race it also
// checks that each shard's idle list stays private to its token holder.
func TestShardedWorkerReuse(t *testing.T) {
	const requests = 3000
	base := runtime.NumGoroutine()
	se := NewShardedEngine(1, 2, 5*Microsecond)
	inbox := [2]*Chan{new(Chan), new(Chan)}
	var handled, peak [2]int // each slot written by its own shard only
	for s := 0; s < 2; s++ {
		s := s
		e := se.Shard(s)
		server := e.Go(fmt.Sprintf("server%d", s), func(p *Proc) {
			for {
				inbox[s].Recv(p)
				e.Go("handler", func(h *Proc) {
					h.Advance(Microsecond)
					handled[s]++
					if g := runtime.NumGoroutine(); g > peak[s] {
						peak[s] = g
					}
				})
			}
		})
		server.MarkDaemon()
		e.Go(fmt.Sprintf("client%d", s), func(p *Proc) {
			for i := 0; i < requests; i++ {
				p.Advance(2 * Microsecond)
				e.SchedulePushShard(1-s, p.Now().Add(5*Microsecond), inbox[1-s], i)
			}
		})
	}
	if err := runWithin(t, se.Run); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if handled[s] != requests {
			t.Fatalf("shard %d handled %d requests, want %d", s, handled[s], requests)
		}
		// Two shard controllers, two servers, two clients and the handlers
		// in flight (a 1 us handler per 2 us of requests: one or two).
		if peak[s] > base+24 {
			t.Fatalf("shard %d saw %d goroutines over a baseline of %d for %d handlers", s, peak[s], base, requests)
		}
	}
	// Only the two parked daemon servers outlive the run.
	if g := settledGoroutines(base + 2); g > base+2 {
		t.Fatalf("%d goroutines after Run, want baseline %d + 2 daemons", g, base)
	}
}

// failingEngines builds, for each kernel flavour, a run whose "victim" proc
// calls fail at t=10 while other procs are parked, advancing and (sharded) busy
// on the other shard.
func failingEngines(fail func()) map[string]func() error {
	parked := func(p *Proc) { p.Park("forever") }
	busy := func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(Microsecond)
		}
	}
	victim := func(p *Proc) {
		p.Advance(10)
		fail()
	}
	single := NewEngine(1)
	single.Go("parked", parked)
	single.Go("busy", busy)
	single.Go("victim", victim)

	se := NewShardedEngine(1, 2, 5*Microsecond)
	se.Shard(0).Go("busy", busy)
	se.Shard(1).Go("parked", parked)
	se.Shard(1).Go("victim", victim)
	return map[string]func() error{"single": single.Run, "two shards": se.Run}
}

// TestProcPanicSurfacesFromRun: a panic inside a proc unwinds out of Run on
// the goroutine that called it, carrying the proc's value, so the caller can
// recover it — it neither kills the process from a goroutine nobody owns nor
// (sharded) leaves the other shard waiting on a bound that never moves.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	for name, run := range failingEngines(func() { panic("proc value") }) {
		got := make(chan interface{}, 1)
		go func() {
			defer func() { got <- recover() }()
			run()
		}()
		select {
		case v := <-got:
			if v != "proc value" {
				t.Errorf("%s: Run's caller recovered %v, want the proc's panic value", name, v)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Run neither returned nor panicked", name)
		}
	}
}

// TestProcGoexitEndsRunCaller: runtime.Goexit inside a proc — what t.Fatal
// does — ends the goroutine that called Run, running its deferred calls, so a
// failing test ends instead of hanging on a coroutine that is gone.
func TestProcGoexitEndsRunCaller(t *testing.T) {
	for name, run := range failingEngines(runtime.Goexit) {
		exited := make(chan bool, 1)
		go func() {
			returned := false
			defer func() { exited <- !returned }()
			run()
			returned = true
		}()
		select {
		case goexit := <-exited:
			if !goexit {
				t.Errorf("%s: Run returned normally although a proc called Goexit", name)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Run's caller neither returned nor exited", name)
		}
	}
}
