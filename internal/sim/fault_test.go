package sim

import (
	"encoding/json"
	"testing"
)

// TestFaultPlanCanonicalOrder: plans containing the same events in any
// insertion order schedule identically.
func TestFaultPlanCanonicalOrder(t *testing.T) {
	a := (&FaultPlan{Seed: 1}).Crash(10, 2).Restart(20, 2).Partition(10, 0, 1)
	b := &FaultPlan{Seed: 1}
	b.Partition(10, 0, 1)
	b.Restart(20, 2)
	b.Crash(10, 2)
	fire := func(p *FaultPlan) []FaultEvent {
		eng := NewEngine(1)
		var got []FaultEvent
		eng.NewFaultCursor(p, func(ev FaultEvent) { got = append(got, ev) }).Arm()
		// The cursor applies events only while a proc is live.
		eng.Go("live", func(pr *Proc) { pr.Advance(30) })
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	ga, gb := fire(a), fire(b)
	if len(ga) != len(a.Events) || len(ga) != len(gb) {
		t.Fatalf("event counts differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if ga[i] != gb[i] {
			t.Fatalf("event %d: %+v vs %+v", i, ga[i], gb[i])
		}
	}
}

// TestFaultPlanJSONRoundTrip: the wire form preserves every field and the
// symbolic kinds parse back.
func TestFaultPlanJSONRoundTrip(t *testing.T) {
	p := (&FaultPlan{Seed: 9}).Crash(5, 1).Restart(15, 1).
		Partition(7, 0, 2).Heal(9, 0, 2).Loss(11, 2, 0, 0.25, 0.125)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q FaultPlan
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q.Seed != p.Seed || len(q.Events) != len(p.Events) {
		t.Fatalf("round trip lost structure: %+v", q)
	}
	for i := range p.Events {
		if p.Events[i] != q.Events[i] {
			t.Fatalf("event %d: %+v vs %+v", i, p.Events[i], q.Events[i])
		}
	}
}

// TestKillParkedProc: killing a parked proc ends the run cleanly — its wake
// records are skipped and it no longer counts as live.
func TestKillParkedProc(t *testing.T) {
	eng := NewEngine(1)
	victim := eng.Go("victim", func(p *Proc) {
		p.Park("forever")
		t.Error("killed proc resumed")
	})
	eng.Go("killer", func(p *Proc) {
		p.Advance(10)
		victim.Kill()
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("run after kill: %v", err)
	}
	if !victim.Dead() {
		t.Fatal("victim not dead")
	}
}

// TestKillReleasesSyncPrimitives: dead procs queued on a mutex, resource or
// channel are skipped, so each reaches the next live waiter.
func TestKillReleasesSyncPrimitives(t *testing.T) {
	eng := NewEngine(1)
	var mu Mutex
	var res Resource
	ch := new(Chan)
	gotLock, gotRes, gotMsg := false, false, false

	eng.Go("holder", func(p *Proc) {
		mu.Lock(p)
		res.Use(p, 50) // deadMu/deadRes/deadCh queue behind
		mu.Unlock(p)
		ch.Push("msg")
	})
	var deadMu, deadRes, deadCh *Proc
	deadMu = eng.Go("deadMu", func(p *Proc) { p.Advance(5); mu.Lock(p); t.Error("dead proc got mutex") })
	deadRes = eng.Go("deadRes", func(p *Proc) { p.Advance(5); res.Use(p, 1); t.Error("dead proc got resource") })
	deadCh = eng.Go("deadCh", func(p *Proc) { p.Advance(5); ch.Recv(p); t.Error("dead proc got message") })

	eng.Go("live", func(p *Proc) {
		p.Advance(20) // queue after the doomed procs
		mu.Lock(p)
		gotLock = true
		mu.Unlock(p)
		res.Use(p, 1)
		gotRes = true
		if v := ch.Recv(p); v == "msg" {
			gotMsg = true
		}
	})
	eng.Go("killer", func(p *Proc) {
		p.Advance(30) // after everyone queued, before holder releases
		deadMu.Kill()
		deadRes.Kill()
		deadCh.Kill()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !gotLock || !gotRes || !gotMsg {
		t.Fatalf("live proc starved: lock=%v resource=%v msg=%v", gotLock, gotRes, gotMsg)
	}
}

// TestChanRecvTimeout: delivery within the deadline wins; an empty channel
// times out at the deadline.
func TestChanRecvTimeout(t *testing.T) {
	eng := NewEngine(1)
	ch := new(Chan)
	var v interface{}
	var ok, ok2 bool
	eng.Go("recv", func(p *Proc) {
		v, ok = ch.RecvTimeout(p, 100)
		_, ok2 = ch.RecvTimeout(p, 30)
	})
	eng.Go("send", func(p *Proc) {
		p.Advance(20)
		ch.Push(42)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || v != 42 {
		t.Fatalf("RecvTimeout = (%v, %v), want (42, true)", v, ok)
	}
	if ok2 {
		t.Fatal("empty channel did not time out")
	}
}

// TestMTBFPlanShiftInvariance: protecting a node removes its events without
// shifting any other node's failure schedule.
func TestMTBFPlanShiftInvariance(t *testing.T) {
	full := GenerateMTBFPlan(5, 4, 1_000_000_000, 100_000_000, 10_000_000)
	prot := GenerateMTBFPlan(5, 4, 1_000_000_000, 100_000_000, 10_000_000, 2)
	byNode := func(p *FaultPlan, n int) []FaultEvent {
		var out []FaultEvent
		for _, ev := range p.Events {
			if ev.Node == n {
				out = append(out, ev)
			}
		}
		return out
	}
	for n := 0; n < 4; n++ {
		a, b := byNode(full, n), byNode(prot, n)
		if n == 2 {
			if len(b) != 0 {
				t.Fatalf("protected node 2 has %d events", len(b))
			}
			continue
		}
		if len(a) != len(b) {
			t.Fatalf("node %d: %d vs %d events — protection shifted other nodes", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("node %d event %d shifted: %+v vs %+v", n, i, a[i], b[i])
			}
		}
	}
}
