package pm2

import (
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// callVec is the vector-call idiom over VecCall: start, wait for the one reply,
// copy the results out, release.
func callVec(th *Thread, dest int, elems []VecElem, retSize int) []interface{} {
	c := th.Runtime().StartVecFrom(th.Node(), dest, elems, retSize)
	c.Reply().Recv(th.Proc())
	res := append([]interface{}(nil), c.Results()...)
	c.Release()
	return res
}

// TestCallVecFansOutAndCoalesces: one vector call fans into one handler per
// element (threaded handlers run concurrently), and the single coalesced
// reply carries the results in element order — after every handler
// completed, including ones that block.
func TestCallVecFansOutAndCoalesces(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	rt.Node(1).Register("double", true, func(h *Thread, arg interface{}) interface{} {
		h.Compute(10 * sim.Microsecond) // handlers overlap; the join waits for all
		return arg.(int) * 2
	})
	rt.Node(1).Register("negate", true, func(h *Thread, arg interface{}) interface{} {
		return -arg.(int)
	})
	var got []interface{}
	rt.CreateThread(0, "caller", func(th *Thread) {
		got = callVec(th, 1, []VecElem{
			{Svc: rt.ServiceID("double"), Arg: 3, Size: 64},
			{Svc: rt.ServiceID("negate"), Arg: 5, Size: 64},
			{Svc: rt.ServiceID("double"), Arg: 7, Size: 64},
		}, 64)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 6 || got[1] != -5 || got[2] != 14 {
		t.Fatalf("vector results = %v, want [6 -5 14] in element order", got)
	}
	if n := rt.Node(1).HandlersSpawned; n != 3 {
		t.Fatalf("HandlersSpawned = %d, want 3 (one per element)", n)
	}
	msgs, _ := rt.Network().Stats()
	// 3 request parts + 1 coalesced reply.
	if msgs != 4 {
		t.Fatalf("messages = %d, want 4 (3 parts + 1 reply)", msgs)
	}
	if env := rt.Network().Envelopes(); env != 2 {
		t.Fatalf("envelopes = %d, want 2 (1 request batch + 1 reply)", env)
	}
}

// TestCallVecEmpty: an empty vector completes immediately instead of
// wedging the caller.
func TestCallVecEmpty(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	done := false
	rt.CreateThread(0, "caller", func(th *Thread) {
		if res := callVec(th, 1, nil, 64); len(res) != 0 {
			t.Errorf("empty vector returned %v", res)
		}
		done = true
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("caller never completed")
	}
}

// TestAsyncVecDeadNodeReclaimsRequests: a fire-and-forget vector whose
// destination died reclaims its pooled request envelopes exactly once (the
// network drop handler routes them back to the runtime's freelist; a double
// put would hand one request out twice and corrupt a later invocation).
func TestAsyncVecDeadNodeReclaimsRequests(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 3, Network: madeleine.BIPMyrinet, Seed: 1})
	calls := 0
	for _, n := range []int{1, 2} {
		node := rt.Node(n)
		node.Register("svc", false, func(h *Thread, arg interface{}) interface{} {
			calls++
			return nil
		})
	}
	rt.KillNode(1)
	rt.CreateThread(0, "caller", func(th *Thread) {
		rt.AsyncVecFrom(0, 1, []VecElem{ // dropped whole: dest is dead
			{Svc: rt.ServiceID("svc"), Arg: 1, Size: 64},
			{Svc: rt.ServiceID("svc"), Arg: 2, Size: 64},
		})
		// A later vector to a live node must get fresh, distinct requests
		// out of the freelist and run both elements.
		callVec(th, 2, []VecElem{
			{Svc: rt.ServiceID("svc"), Arg: 3, Size: 64},
			{Svc: rt.ServiceID("svc"), Arg: 4, Size: 64},
		}, 64)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("live node ran %d handlers, want 2", calls)
	}
}

// TestVecCallReleasedStartsClean: a released call serves the node's next
// vector — the same object, its results zeroed and its countdown full — and
// releasing one whose reply has not been consumed panics.
func TestVecCallReleasedStartsClean(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	rt.Node(1).Register("echo", true, func(h *Thread, arg interface{}) interface{} { return arg })
	rt.CreateThread(0, "caller", func(th *Thread) {
		first := rt.StartVecFrom(0, 1, []VecElem{{Svc: rt.ServiceID("echo"), Arg: 1, Size: 64}, {Svc: rt.ServiceID("echo"), Arg: 2, Size: 64}}, 64)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Release before the reply did not panic")
				}
			}()
			first.Release()
		}()
		first.Reply().Recv(th.Proc())
		if res := first.Results(); len(res) != 2 || res[0] != 1 || res[1] != 2 {
			t.Errorf("first results = %v, want [1 2]", res)
		}
		first.Release()
		next := rt.StartVecFrom(0, 1, []VecElem{{Svc: rt.ServiceID("echo"), Arg: 3, Size: 64}, {Svc: rt.ServiceID("echo"), Arg: 4, Size: 64},
			{Svc: rt.ServiceID("echo"), Arg: 5, Size: 64}}, 64)
		if next != first {
			t.Error("the released call was not reused")
		}
		if next.remaining != 3 || next.reply.Len() != 0 {
			t.Errorf("reused call starts with countdown %d and %d queued replies, want 3 and 0", next.remaining, next.reply.Len())
		}
		for i, r := range next.Results() {
			if r != nil {
				t.Errorf("reused call starts with results[%d] = %v, want nil", i, r)
			}
		}
		next.Reply().Recv(th.Proc())
		if res := next.Results(); len(res) != 3 || res[0] != 3 || res[2] != 5 {
			t.Errorf("second results = %v, want [3 4 5]", res)
		}
		next.Release()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestVecCallUnreleasedSurvivesLateReply: a caller that stops waiting (its
// destination crashed, as far as it knows) does not release its call, so the
// node's next vector gets a different one and the late reply lands, unread,
// in the abandoned call's own queue — never in its successor's.
func TestVecCallUnreleasedSurvivesLateReply(t *testing.T) {
	rt := NewRuntime(Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	rt.Node(1).Register("slow", true, func(h *Thread, arg interface{}) interface{} {
		h.Advance(sim.Duration(arg.(int)) * sim.Microsecond)
		return arg
	})
	rt.CreateThread(0, "caller", func(th *Thread) {
		late := rt.StartVecFrom(0, 1, []VecElem{{Svc: rt.ServiceID("slow"), Arg: 500, Size: 64}}, 64)
		th.Advance(100 * sim.Microsecond)
		if late.Reply().Len() != 0 {
			t.Error("the slow call replied before its caller gave up")
		}
		retry := rt.StartVecFrom(0, 1, []VecElem{{Svc: rt.ServiceID("slow"), Arg: 1000, Size: 64}}, 64)
		if retry == late {
			t.Fatal("an unreleased call was handed out again")
		}
		retry.Reply().Recv(th.Proc()) // the late reply arrives meanwhile
		if res := retry.Results(); len(res) != 1 || res[0] != 1000 {
			t.Errorf("retry results = %v, want [1000]", res)
		}
		retry.Release()
		if late.Reply().Len() != 1 || late.Results()[0] != 500 {
			t.Errorf("abandoned call holds %d replies and result %v, want its own late reply (500)", late.Reply().Len(), late.Results()[0])
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}
