package pm2

import (
	"fmt"
	"testing"

	"dsmpm2/internal/sim"
)

// Quick services (RegisterQuick) run their handlers in engine context, on no
// thread. These pin what a caller can observe: results, virtual times and the
// node's handler count are a threaded handler's, and no thread is made.

// TestQuickReplyAtOnce: a result returned by a quick handler is replied at
// once — the caller sees the null-RPC latency — from one call record beside
// the drain that delivered the request, and the delivery counts as a handler
// although no thread runs it.
func TestQuickReplyAtOnce(t *testing.T) {
	rt := newRT(2, nil)
	rt.Node(1).RegisterQuick("double", func(_ *Request, arg interface{}) (interface{}, bool) {
		return arg.(int) * 2, false
	})
	var got interface{}
	var at sim.Time
	rt.CreateThread(0, "caller", func(th *Thread) {
		got = th.Call(1, "double", 21, 8, 8)
		at = th.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 || at != sim.Time(8*sim.Microsecond) {
		t.Fatalf("quick call returned %v at %v, want 42 after the 8us null RPC", got, at)
	}
	if n := rt.Node(1); n.HandlersSpawned != 1 || n.ThreadsSpawned != 0 || rt.ThreadCount() != 1 {
		t.Fatalf("HandlersSpawned %d, node-1 threads %d, ThreadCount %d; want 1, 0, 1 (the caller)",
			n.HandlersSpawned, n.ThreadsSpawned, rt.ThreadCount())
	}
	if qs := rt.Engine().QueueStats(); qs.Drains != 1 || qs.Calls != 2 {
		t.Fatalf("%d call records fired, %d of them drains; want 2, one the drain", qs.Calls, qs.Drains)
	}
}

// TestQuickKeepAndAnswer: requests a quick handler keeps are answered from
// another quick request's handler, which replies to its own caller first: all
// three replies leave at that instant, in the order they were sent.
func TestQuickKeepAndAnswer(t *testing.T) {
	rt := newRT(2, nil)
	var kept []*Request
	rt.Node(1).RegisterQuick("wait", func(r *Request, _ interface{}) (interface{}, bool) {
		kept = append(kept, r)
		return nil, true
	})
	rt.Node(1).RegisterQuick("open", func(_ *Request, arg interface{}) (interface{}, bool) {
		for i, r := range kept {
			r.Answer(fmt.Sprintf("%v%d", arg, i))
		}
		n := len(kept)
		kept = nil
		return n, false
	})
	var log []string
	for i := 0; i < 2; i++ {
		rt.CreateThread(0, fmt.Sprintf("waiter%d", i), func(th *Thread) {
			th.Advance(sim.Duration(i) * sim.Microsecond)
			v := th.Call(1, "wait", nil, 0, 0)
			log = append(log, fmt.Sprintf("%s %v @%v", th.Name(), v, th.Now()))
		})
	}
	rt.CreateThread(0, "opener", func(th *Thread) {
		th.Advance(100 * sim.Microsecond)
		v := th.Call(1, "open", "go", 0, 0)
		log = append(log, fmt.Sprintf("opener %v @%v", v, th.Now()))
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[opener 2 @108.000us waiter0 go0 @108.000us waiter1 go1 @108.000us]"
	if got := fmt.Sprint(log); got != want {
		t.Fatalf("log %s\nwant %s", got, want)
	}
	if n := rt.Node(1).HandlersSpawned; n != 3 {
		t.Fatalf("HandlersSpawned = %d, want 3", n)
	}
}

// TestQuickSizedReply: a SizedReply from a quick handler is charged at its
// size, exactly as from a threaded one, and the caller receives its Value.
func TestQuickSizedReply(t *testing.T) {
	var at [2]sim.Time
	for i, quick := range []bool{false, true} {
		rt := newRT(2, nil)
		sized := &SizedReply{Value: "bulk", Size: 4096}
		if quick {
			rt.Node(1).RegisterQuick("get", func(*Request, interface{}) (interface{}, bool) { return sized, false })
		} else {
			rt.Node(1).Register("get", true, func(*Thread, interface{}) interface{} { return sized })
		}
		rt.CreateThread(0, "caller", func(th *Thread) {
			if v := th.Call(1, "get", nil, 0, 64); v != "bulk" {
				t.Errorf("quick=%v: reply %v, want the SizedReply's value", quick, v)
			}
			at[i] = th.Now()
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if at[1] != at[0] || at[1] <= sim.Time(8*sim.Microsecond) {
		t.Fatalf("sized reply arrived at %v quick, %v threaded; want equal and after the 8us null RPC", at[1], at[0])
	}
}

// TestQuickVecElements: the elements of a vector call that go to quick
// services count down its join — one answered at once, one kept and answered
// later — and the one coalesced reply carries every result in element order.
func TestQuickVecElements(t *testing.T) {
	rt := newRT(2, nil)
	var held *Request
	rt.Node(1).RegisterQuick("echo", func(_ *Request, arg interface{}) (interface{}, bool) { return arg, false })
	rt.Node(1).RegisterQuick("hold", func(r *Request, _ interface{}) (interface{}, bool) {
		held = r
		return nil, true
	})
	rt.Node(1).RegisterQuick("open", func(_ *Request, arg interface{}) (interface{}, bool) {
		held.Answer(arg)
		return nil, false
	})
	var got []interface{}
	var at sim.Time
	rt.CreateThread(0, "caller", func(th *Thread) {
		got = callVec(th, 1, []VecElem{{Svc: rt.ServiceID("echo"), Arg: 1, Size: 64}, {Svc: rt.ServiceID("hold"), Size: 64}, {Svc: rt.ServiceID("echo"), Arg: 3, Size: 64}}, 64)
		at = th.Now()
	})
	rt.CreateThread(0, "opener", func(th *Thread) {
		th.Advance(50 * sim.Microsecond)
		th.Call(1, "open", 2, 0, 0)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" || at != sim.Time(58*sim.Microsecond) {
		t.Fatalf("vector results %v at %v, want [1 2 3] at 58us (the kept element's answer + half an RPC)", got, at)
	}
	if n := rt.Node(1).HandlersSpawned; n != 4 {
		t.Fatalf("HandlersSpawned = %d, want 4 (three elements and the opener's call)", n)
	}
}

// TestQuickKeptRequestDiesWithNode: a kept request belongs to the incarnation
// of the node that kept it. Answered after that node crashed and restarted it
// is dropped — no reply, no event — as a killed handler thread never replies;
// a request kept by the new incarnation is answered as usual.
func TestQuickKeptRequestDiesWithNode(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 2, Seed: 1})
	var kept []*Request
	rt.Node(1).RegisterQuick("wait", func(r *Request, _ interface{}) (interface{}, bool) {
		kept = append(kept, r)
		return nil, true
	})
	rt.Node(1).RegisterQuick("open", func(_ *Request, _ interface{}) (interface{}, bool) {
		for _, r := range kept {
			r.Answer("granted")
		}
		kept = nil
		return nil, false
	})
	var log []string
	call := func(th *Thread, svc string) {
		v := th.Call(1, svc, nil, 0, 0)
		log = append(log, fmt.Sprintf("%s %s %v @%v", th.Name(), svc, v, th.Now()))
	}
	rt.CreateThread(0, "orphan", func(th *Thread) { call(th, "wait") })
	rt.CreateThread(0, "driver", func(th *Thread) {
		th.Advance(50 * sim.Microsecond)
		rt.KillNode(1)
		rt.RestartNode(1)
		rt.CreateThread(0, "heir", func(th *Thread) { call(th, "wait") })
		th.Advance(50 * sim.Microsecond)
		events := rt.Engine().Events()
		call(th, "open")
		if got := rt.Engine().Events() - events; got != 7 {
			t.Errorf("the open round trip fired %d events, want 7: the orphan's answer must schedule nothing", got)
		}
	})
	err := rt.Run()
	if want := "sim: deadlock at t=108.000us: 1 proc(s) blocked: orphan (chan recv)"; err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %s", err, want)
	}
	if want := "[driver open <nil> @108.000us heir wait granted @108.000us]"; fmt.Sprint(log) != want {
		t.Fatalf("log %v\nwant %s", log, want)
	}
}
