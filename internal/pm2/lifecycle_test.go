package pm2

import (
	"fmt"
	"testing"
	"unsafe"

	"dsmpm2/internal/sim"
)

// liveNames lists the machine-wide live-thread list in order.
func liveNames(rt *Runtime) []string {
	var out []string
	for t := rt.live.head; t != nil; t = t.next {
		out = append(out, t.Name())
	}
	return out
}

// TestLiveListDropsFinishedThreads: a finished thread leaves the runtime's
// list without disturbing the creation order of the rest, and ThreadCount
// keeps counting every thread ever created.
func TestLiveListDropsFinishedThreads(t *testing.T) {
	rt := newRT(2, nil)
	var mid []string
	for i, d := range []sim.Duration{30, 10, 30, 10, 30} {
		d := d
		rt.CreateThread(i%2, fmt.Sprintf("t%d", i), func(th *Thread) { th.Advance(d * sim.Microsecond) })
	}
	rt.Engine().Schedule(sim.Time(20*sim.Microsecond), func() { mid = liveNames(rt) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(mid), "[t0 t2 t4]"; got != want {
		t.Fatalf("live list at t=20us = %s, want %s", got, want)
	}
	if names := liveNames(rt); len(names) != 0 {
		t.Fatalf("live list after Run = %v, want empty", names)
	}
	if rt.ThreadCount() != 5 {
		t.Fatalf("ThreadCount = %d, want 5 (created, not live)", rt.ThreadCount())
	}
}

// TestKillNodeReleasesJoinersInCreationOrder: the order KillNode walks the
// victims reaches virtual time through the joiners it unparks, so it must be
// creation order even after earlier threads finished (an unlink that moved
// the last thread into the hole would release v4's joiner before v3's) and
// for a thread that migrated in (created first, so released first).
func TestKillNodeReleasesJoinersInCreationOrder(t *testing.T) {
	rt := newRT(2, nil)
	stuck := func(th *Thread) { th.Proc().Park("stuck") }
	victims := []*Thread{
		rt.CreateThread(0, "v0", func(th *Thread) { // migrates in, then sticks
			th.MigrateTo(1)
			stuck(th)
		}),
		rt.CreateThread(1, "v1", stuck),
		rt.CreateThread(1, "v2", func(th *Thread) { th.Advance(sim.Microsecond) }), // finishes early
		rt.CreateThread(1, "v3", stuck),
		rt.CreateThread(1, "v4", stuck),
	}
	var released []string
	// Joiners are created in the reverse order, so only the walk over the
	// victims can produce the expected release order.
	for i := len(victims) - 1; i >= 0; i-- {
		v := victims[i]
		rt.CreateThread(0, "join-"+v.Name(), func(th *Thread) {
			th.Join(v)
			if v.Name() != "v2" {
				released = append(released, v.Name())
			}
		})
	}
	rt.Engine().Schedule(sim.Time(sim.Millisecond), func() { rt.KillNode(1) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(released), "[v0 v1 v3 v4]"; got != want {
		t.Fatalf("joiners released in order %s, want %s", got, want)
	}
	if names := liveNames(rt); len(names) != 0 {
		t.Fatalf("live list after the kill = %v, want empty", names)
	}
}

// TestJoinDeadlockReportNamesTarget: the park reason of a join is a constant,
// and the report still says which thread was being joined.
func TestJoinDeadlockReportNamesTarget(t *testing.T) {
	rt := newRT(1, nil)
	hung := rt.CreateThread(0, "hung", func(th *Thread) { th.Proc().Park("stuck") })
	rt.CreateThread(0, "waiter", func(th *Thread) { th.Join(hung) })
	err := rt.Run()
	de, ok := err.(*sim.DeadlockError)
	if !ok {
		t.Fatalf("Run returned %v, want a deadlock", err)
	}
	if got, want := fmt.Sprint(de.Blocked), "[hung (stuck) waiter (join hung)]"; got != want {
		t.Fatalf("blocked = %s, want %s", got, want)
	}
}

// threadedNull builds a two-node machine with a threaded null service on
// node 1.
func threadedNull(tb testing.TB) *Runtime {
	rt := newRT(2, nil)
	rt.Node(1).Register("null", true, func(h *Thread, arg interface{}) interface{} { return nil })
	if err := rt.Run(); err != nil {
		tb.Fatal(err)
	}
	return rt
}

// TestHandlerThreadLifecycleAllocs pins what one handler thread costs the
// host from request to exit: an Async to a threaded null service, drained.
// The request envelope and the message are pooled, the names are formatted
// at registration, the calendar, the drain record, the park and the envelope
// counters allocate nothing, the request goes from the event loop to its
// handler with no thread in between, the coroutine is a recycled worker, and
// the thread — descriptor and proc in one object, its own proc body, carrying
// its service and request — is the one its predecessor handed back. Nothing
// is left.
//
// One client thread issues a batch of requests spaced wider than a handler's
// life, so every handler after the first reuses the first's descriptor and
// worker. Per batch that leaves the client thread (one object) and the two
// workers Run ends on return, 13 objects each — the worker, its loop closure
// and the coroutine state iter.Pull builds — which amortize to 0.14 per
// request.
func TestHandlerThreadLifecycleAllocs(t *testing.T) {
	rt := threadedNull(t)
	const batch = 200
	perBatch := testing.AllocsPerRun(20, func() {
		rt.CreateThread(0, "client", func(th *Thread) {
			for i := 0; i < batch; i++ {
				th.Async(1, "null", nil, 0)
				th.Advance(100 * sim.Microsecond)
			}
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if per := perBatch / batch; per > 0.2 {
		t.Fatalf("a handler-thread lifecycle allocates %.2f objects, want 0 (plus 0.14 amortized)", per)
	}
	if rt.ThreadCount() < batch || len(liveNames(rt)) != 0 {
		t.Fatalf("ThreadCount %d, live %v: want every handler counted and nothing live", rt.ThreadCount(), liveNames(rt))
	}
}

// TestDescriptorSizeClasses pins the two objects a thread is made of to the
// allocator's size classes they fill exactly. A thread descriptor embeds its
// sim.Proc, and every spawn that finds no recycled descriptor allocates one:
// a Proc past 112 bytes falls into the 128-byte class and a Thread past 240
// into the 256-byte one, and every such allocation pays for the gap. One
// word more in Proc (Thread 248 bytes) costs tsp 0.4 % of its allocated
// bytes; three words more (Thread 264, the 288-byte class) cost 1.3 %.
func TestDescriptorSizeClasses(t *testing.T) {
	if n := unsafe.Sizeof(sim.Proc{}); n > 112 {
		t.Errorf("sim.Proc is %d bytes, past the 112-byte size class", n)
	}
	if n := unsafe.Sizeof(Thread{}); n > 240 {
		t.Errorf("pm2.Thread is %d bytes, past the 240-byte size class", n)
	}
}

// TestRecycledHandlerStartsClean: the second request of a threaded service
// runs on the first handler's descriptor, and sees nothing of it — no
// migration count, not done, a new id, its own node, and a reply queue with
// nothing in it.
func TestRecycledHandlerStartsClean(t *testing.T) {
	rt := newRT(2, nil)
	rt.Node(0).Register("echo", false, func(h *Thread, arg interface{}) interface{} { return arg })
	var first, second *Thread
	var firstID int
	rt.Node(1).Register("svc", true, func(h *Thread, arg interface{}) interface{} {
		if first == nil {
			first, firstID = h, h.ID()
			h.SetMigratable(true)
			h.Call(0, "echo", 1, 0, 0) // leaves a reply queue behind
			h.MigrateTo(0)
			return nil
		}
		second = h
		switch {
		case h.Migrations() != 0 || h.migratable || h.Done():
			t.Errorf("recycled handler starts with migrations=%d migratable=%v done=%v", h.Migrations(), h.migratable, h.Done())
		case h.ID() <= firstID:
			t.Errorf("recycled handler has id %d, not after its predecessor's %d", h.ID(), firstID)
		case h.Node() != 1:
			t.Errorf("recycled handler starts on node %d, want 1", h.Node())
		case h.reply == nil || h.reply.Len() != 0:
			t.Errorf("recycled handler's reply queue: %v", h.reply)
		case h.Proc().Body() != h:
			t.Error("recycled handler's proc does not lead back to it")
		}
		if v := h.Call(0, "echo", 2, 0, 0); v != 2 {
			t.Errorf("call from the recycled handler returned %v", v)
		}
		return nil
	})
	rt.CreateThread(0, "client", func(th *Thread) {
		th.Call(1, "svc", nil, 0, 0)
		th.Advance(sim.Millisecond)
		th.Call(1, "svc", nil, 0, 0)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if second == nil || second != first {
		t.Fatalf("second request ran on %p, first on %p: the descriptor was not reused and the test checks nothing", second, first)
	}
}

// TestKilledHandlerNeverReused: a handler killed by KillNode never returns,
// so its descriptor never reaches the service's list — its proc may still
// have wake records queued — and the restarted node's requests run on others.
func TestKilledHandlerNeverReused(t *testing.T) {
	rt := newRT(2, nil)
	var killed *Thread
	reused := false
	rt.Node(1).Register("svc", true, func(h *Thread, arg interface{}) interface{} {
		if killed == nil {
			killed = h
			h.Advance(sim.Millisecond) // its wake record outlives the crash
			t.Error("the killed handler resumed")
		}
		reused = reused || h == killed
		return nil
	})
	rt.CreateThread(0, "driver", func(th *Thread) {
		th.Async(1, "svc", nil, 0)
		th.Advance(100 * sim.Microsecond)
		rt.KillNode(1)
		rt.RestartNode(1)
		for i := 0; i < 3; i++ {
			th.Call(1, "svc", nil, 0, 0)
		}
		th.Advance(2 * sim.Millisecond) // past the dead handler's wake
		th.Call(1, "svc", nil, 0, 0)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	free := &rt.Node(1).service("svc").free
	free.Each(func(th *Thread) { reused = reused || th == killed })
	if killed == nil || reused {
		t.Fatalf("killed handler %p was handed out again or pooled (reused=%v)", killed, reused)
	}
	if free.Len() != 1 {
		t.Fatalf("%d descriptors pooled after four sequential requests, want 1", free.Len())
	}
}

// TestHandlerDescriptorsBoundedByConcurrency: 10 000 requests through one
// threaded service leave at most as many descriptors on its list as handlers
// ever ran at once.
func TestHandlerDescriptorsBoundedByConcurrency(t *testing.T) {
	const clients, each = 4, 1250
	rt := newRT(2, nil)
	running, peak, served := 0, 0, 0
	rt.Node(1).Register("svc", true, func(h *Thread, arg interface{}) interface{} {
		running++
		peak = max(peak, running)
		h.Advance(sim.Duration(1+served%7) * sim.Microsecond)
		running--
		served++
		return nil
	})
	for c := 0; c < clients; c++ {
		rt.CreateThread(0, fmt.Sprintf("client%d", c), func(th *Thread) {
			for i := 0; i < each; i++ {
				th.Call(1, "svc", nil, 0, 0)
				th.Async(1, "svc", nil, 0)
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if pooled := rt.Node(1).service("svc").free.Len(); served != 2*clients*each || pooled > peak {
		t.Fatalf("served %d requests at peak concurrency %d, %d descriptors pooled", served, peak, pooled)
	}
	if rt.Node(1).HandlersSpawned != served || rt.ThreadCount() != served+clients {
		t.Fatalf("HandlersSpawned %d, ThreadCount %d: want %d handlers and %d clients counted", rt.Node(1).HandlersSpawned, rt.ThreadCount(), served, clients)
	}
}
