package pm2

import (
	"fmt"
	"testing"

	"dsmpm2/internal/sim"
)

// TestKillNodeStopsThreadsAndRestartServes: a killed node's threads never
// resume, its services stop, and after a restart the node serves RPCs
// again with a fresh CPU.
func TestKillNodeStopsThreadsAndRestartServes(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 2, Seed: 1})
	served := 0
	rt.Node(1).Register("ping", true, func(h *Thread, arg interface{}) interface{} {
		served++
		return served
	})
	resumed := false
	rt.CreateThread(1, "doomed", func(th *Thread) {
		th.Advance(100 * sim.Microsecond) // killed (at ~8us) long before this expires
		resumed = true
	})
	rt.CreateThread(0, "driver", func(th *Thread) {
		if v := th.Call(1, "ping", nil, 0, 0); v != 1 {
			t.Errorf("first call returned %v", v)
		}
		rt.Engine().Schedule(rt.Engine().Now(), func() { rt.KillNode(1) })
		th.Yield()
		if !rt.Node(1).Dead() {
			t.Error("node 1 not dead after KillNode")
		}
		th.Advance(1000)
		rt.Engine().Schedule(rt.Engine().Now(), func() { rt.RestartNode(1) })
		th.Yield()
		if v := th.Call(1, "ping", nil, 0, 0); v != 2 {
			t.Errorf("post-restart call returned %v", v)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("thread on the killed node resumed")
	}
	if rt.Node(1).Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rt.Node(1).Restarts)
	}
}

// TestDroppedRPCReclaimsEnvelopeOnce is the pm2 half of the double-free
// regression: an Async invocation dropped at a dead node must return its
// Request envelope to the freelist exactly once. A double Put would hand one
// envelope to two later invocations, crossing their arguments.
func TestDroppedRPCReclaimsEnvelopeOnce(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 3, Seed: 1})
	var seen []interface{}
	rt.Node(2).Register("sink", false, func(h *Thread, arg interface{}) interface{} {
		seen = append(seen, arg)
		return nil
	})
	rt.CreateThread(0, "driver", func(th *Thread) {
		rt.Engine().Schedule(rt.Engine().Now(), func() { rt.KillNode(1) })
		th.Yield()
		// Two invocations at the corpse: both envelopes reclaimed.
		th.Async(1, "sink", "dead-a", 0)
		th.Async(1, "sink", "dead-b", 0)
		// Two live invocations: if an envelope had been double-freed, these
		// two would share one and the second send's argument would clobber
		// the first before its dispatch.
		th.Async(2, "sink", "live-a", 0)
		th.Async(2, "sink", "live-b", 0)
		th.Advance(1000 * sim.Microsecond)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seen) != "[live-a live-b]" {
		t.Fatalf("sink saw %v, want [live-a live-b]", seen)
	}
}

// TestCrashUnbindsServedQueues: a threaded service's queue is bound to the
// event loop, so a crash must stop that consumer the way it used to kill the
// dispatcher thread. Three requests are caught by the crash, in the order the
// event loop sees them at the crash instant T (one run of the calendar: push
// a, the crash, push b; then a's drain record from the now-ring):
//
//   - a is queued with its drain record pending when the crash fires, and the
//     crash sweep reclaims it;
//   - b lands in the orphaned queue behind the crash while that drain record
//     is still pending — fired into a bound queue it would start a handler on
//     a crashed node (checkAlive panics);
//   - c is in flight across both crash and restart and lands in the orphaned
//     queue of the dead incarnation — still bound, it would be served by the
//     next one.
//
// After the restart a new request is served exactly once and the old three
// never, whether the faults are applied directly or through a fault plan.
func TestCrashUnbindsServedQueues(t *testing.T) {
	inject := map[string]func(rt *Runtime, crash, restart sim.Time){
		"direct": func(rt *Runtime, crash, restart sim.Time) {
			rt.Engine().Schedule(crash, func() { rt.KillNode(1) })
			rt.Engine().Schedule(restart, func() { rt.RestartNode(1) })
		},
		"fault plan": func(rt *Runtime, crash, restart sim.Time) {
			plan := (&sim.FaultPlan{Seed: 1}).Crash(crash, 1).Restart(restart, 1)
			rt.Engine().NewFaultCursor(plan, func(ev sim.FaultEvent) {
				if ev.Kind == sim.FaultNodeCrash {
					rt.KillNode(ev.Node)
				} else {
					rt.RestartNode(ev.Node)
				}
			}).Arm()
		},
	}
	for name, inject := range inject {
		rt := NewRuntime(Config{Nodes: 2, Seed: 1})
		var served []interface{}
		rt.Node(1).Register("svc", true, func(h *Thread, arg interface{}) interface{} {
			served = append(served, arg)
			return arg
		})
		link := rt.Link(0, 1)
		crash := sim.Time(0).Add(link.CtrlMsg)
		restart := crash.Add(sim.Microsecond)
		if land := sim.Time(0).Add(link.Transfer(4096)); land <= restart {
			t.Fatalf("bulk request lands at %v, not after the restart at %v", land, restart)
		}
		rt.CreateThread(0, "driver", func(th *Thread) {
			th.Async(1, "svc", "a", 0)
			inject(rt, crash, restart) // at t=0: offsets are absolute times
			th.Async(1, "svc", "b", 0)
			th.Async(1, "svc", "c", 4096)
			th.Advance(sim.Millisecond) // everything has landed
			if rt.Node(1).Dead() || rt.Node(1).Restarts != 1 {
				t.Errorf("%s: node 1 was not crashed and restarted", name)
			}
			if v := th.Call(1, "svc", "new", 0, 0); v != "new" {
				t.Errorf("%s: post-restart call returned %v", name, v)
			}
		})
		if err := rt.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(served) != "[new]" {
			t.Fatalf("%s: served %v, want [new]: a request of the dead incarnation got through", name, served)
		}
		if st := rt.Network().FaultStats(); st.Crashes != 1 || st.Restarts != 1 {
			t.Fatalf("%s: fault stats %+v, want one crash and one restart", name, st)
		}
	}
}

// TestCrashReleasesSerialServiceRequests: a crash that catches a serial
// service busy, one handler running and two requests queued behind it, hands
// all three envelopes back to the pool once each — the killed handler's and
// the queued ones, which the crash sweeps from the queue — and the restarted
// node's service, bound to its fresh queue, serves the next request.
func TestCrashReleasesSerialServiceRequests(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 2, Seed: 1})
	var served []interface{}
	rt.Node(1).Register("svc", false, func(h *Thread, arg interface{}) interface{} {
		served = append(served, arg)
		h.Advance(sim.Millisecond) // the crash catches the first here
		return arg
	})
	rt.CreateThread(0, "driver", func(th *Thread) {
		for _, arg := range []string{"a", "b", "c"} {
			th.Async(1, "svc", arg, 0)
		}
		th.Advance(100 * sim.Microsecond)
		if fmt.Sprint(served) != "[a]" || rt.reqFree.Len() != 0 {
			t.Fatalf("before the crash: served %v, %d envelopes pooled; want a running, b and c queued, none pooled",
				served, rt.reqFree.Len())
		}
		rt.KillNode(1)
		rt.RestartNode(1)
		seen := map[*Request]bool{}
		rt.reqFree.Each(func(r *Request) { seen[r] = true })
		if len(seen) != 3 || rt.reqFree.Len() != 3 {
			t.Fatalf("after the restart: %d envelopes pooled, %d distinct; want 3", rt.reqFree.Len(), len(seen))
		}
		if v := th.Call(1, "svc", "new", 0, 0); v != "new" {
			t.Errorf("post-restart call returned %v", v)
		}
		th.Advance(2 * sim.Millisecond) // past the killed handler's wake
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(served) != "[a new]" || rt.reqFree.Len() != 3 {
		t.Fatalf("served %v with %d envelopes pooled, want [a new] and 3", served, rt.reqFree.Len())
	}
}
