package pm2

import (
	"fmt"
	"testing"

	"dsmpm2/internal/madeleine"
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
	rt.EnableFaults(1, madeleine.PartitionQueue)
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
// node 1 and parks its dispatcher.
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
// at registration, the calendar, the park and the envelope counters allocate
// nothing, the coroutine is a recycled worker, and the thread is its own proc
// body, carrying its service and request. What is left is the two objects
// that are the thread:
//
//	1  the Thread descriptor                        (Runtime.start)
//	1  the sim.Proc                                 (Engine.SpawnRunner)
//
// One client thread issues a batch of requests spaced wider than a handler's
// life, so every handler after the first runs on the worker its predecessor
// left idle. Per batch that leaves the client (a Thread and a Proc) and the
// two workers Run ends on return, 13 objects each — the worker, its loop
// closure and the coroutine state iter.Pull builds — which amortize to 0.14
// per request.
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
	if per := perBatch / batch; per < 2 || per > 2.15 {
		t.Fatalf("a handler-thread lifecycle allocates %.2f objects, want 2 (plus 0.14 amortized)", per)
	}
	if rt.ThreadCount() < batch || len(liveNames(rt)) != 1 {
		t.Fatalf("ThreadCount %d, live %v: want every handler counted and only the dispatcher live", rt.ThreadCount(), liveNames(rt))
	}
}
