package madeleine

import (
	"testing"

	"dsmpm2/internal/sim"
)

// TestSendGatherScatters checks the basic contract: one envelope, parts
// delivered to their per-channel queues in part order, counters split
// between messages (per part) and envelopes (per batch).
func TestSendGatherScatters(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	a, b := nw.ChannelID("a"), nw.ChannelID("b")
	var got []string
	eng.Go("recv", func(p *sim.Proc) {
		m1 := nw.RecvID(p, 1, a)
		got = append(got, m1.Payload.(string))
		nw.FreeMessage(m1)
		m2 := nw.RecvID(p, 1, a)
		got = append(got, m2.Payload.(string))
		nw.FreeMessage(m2)
		m3 := nw.RecvID(p, 1, b)
		got = append(got, m3.Payload.(string))
		nw.FreeMessage(m3)
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendGather(0, 1, []GatherPart{
			{Chan: a, Size: 64, Payload: "a1"},
			{Chan: a, Size: 64, Payload: "a2"},
			{Chan: b, Size: 4096, Payload: "b1"},
		}, 10*sim.Microsecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "a1" || got[1] != "a2" || got[2] != "b1" {
		t.Fatalf("received %v, want [a1 a2 b1] in order", got)
	}
	if msgs, _ := nw.Stats(); msgs != 3 {
		t.Fatalf("message count = %d, want 3 (one per part)", msgs)
	}
	if nw.Envelopes() != 1 {
		t.Fatalf("envelope count = %d, want 1 (one per batch)", nw.Envelopes())
	}
}

// TestGatherSingleDeparture checks the scatter/gather contention contract:
// a multi-part envelope crosses the link occupancy model once (its summed
// size — zero queueing among its own parts), while the same parts sent
// individually queue FIFO behind each other on the busy link.
func TestGatherSingleDeparture(t *testing.T) {
	run := func(gather bool) LinkStats {
		eng := sim.NewEngine(1)
		nw := NewNetwork(eng, BIPMyrinet, 2)
		nw.SetLinkContention(true)
		ch := nw.ChannelID("ch")
		eng.Go("recv", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				nw.FreeMessage(nw.RecvID(p, 1, ch))
			}
		})
		eng.Go("send", func(p *sim.Proc) {
			if gather {
				nw.SendGather(0, 1, []GatherPart{
					{Chan: ch, Size: 4096, Payload: 1},
					{Chan: ch, Size: 4096, Payload: 2},
					{Chan: ch, Size: 4096, Payload: 3},
				}, BIPMyrinet.Transfer(3*4096))
			} else {
				for i := 0; i < 3; i++ {
					nw.SendBulkID(0, 1, ch, 4096, i)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return nw.LinkStats()
	}
	if ls := run(true); ls.Waits != 0 {
		t.Fatalf("gather queued %d times on its own link; a batch is one departure", ls.Waits)
	}
	if ls := run(false); ls.Waits != 2 {
		t.Fatalf("loose sends queued %d times, want 2 (each part behind its predecessor)", ls.Waits)
	}
}

// TestGatherDeadNodeReclaimsOnce is the mid-batch kill regression test: a
// multi-part envelope whose destination is dead must reclaim every pooled
// part exactly once — each inner payload reaches the drop handler once, and
// the freed Message envelopes come back out of the pool as distinct values.
func TestGatherDeadNodeReclaimsOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 3)
	seen := map[interface{}]int{}
	nw.SetDropHandler(func(p interface{}) { seen[p]++ })
	nw.CrashNode(1)

	ch := nw.ChannelID("ch")
	p1, p2, p3 := &struct{ int }{1}, &struct{ int }{2}, &struct{ int }{3}
	eng.Go("send", func(p *sim.Proc) {
		nw.SendGather(0, 1, []GatherPart{
			{Chan: ch, Size: 64, Payload: p1},
			{Chan: ch, Size: 64, Payload: p2},
			{Chan: ch, Size: 4096, Payload: p3},
		}, 10*sim.Microsecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[p1] != 1 || seen[p2] != 1 || seen[p3] != 1 {
		t.Fatalf("drop handler counts = %v, want each of the 3 parts exactly once", seen)
	}
	if nw.FaultStats().DeadDrops != 1 {
		t.Fatalf("DeadDrops = %d, want 1 (the envelope is one wire unit)", nw.FaultStats().DeadDrops)
	}

	// Freelist integrity: the three reclaimed envelopes must come back out
	// as three distinct Messages. A double Put would hand one pointer out
	// twice.
	var got []*Message
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, nw.RecvID(p, 2, ch))
		}
	})
	eng.Go("send2", func(p *sim.Proc) {
		nw.SendGather(0, 2, []GatherPart{
			{Chan: ch, Size: 64, Payload: "x"},
			{Chan: ch, Size: 64, Payload: "y"},
			{Chan: ch, Size: 64, Payload: "z"},
		}, 10*sim.Microsecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] == got[1] || got[1] == got[2] || got[0] == got[2] {
		t.Fatal("freelist handed out one envelope twice: a gather part was double-freed")
	}
}

// TestGatherPartitionHoldsWholeEnvelope: a queueing partition parks the
// envelope as a unit; healing re-injects every part (in order), and a crash
// while held reclaims every part exactly once.
func TestGatherPartitionHoldsWholeEnvelope(t *testing.T) {
	t.Run("heal", func(t *testing.T) {
		eng := sim.NewEngine(1)
		nw := NewNetwork(eng, BIPMyrinet, 2)
		nw.PartitionLink(0, 1)
		ch := nw.ChannelID("ch")
		var got []interface{}
		eng.Go("recv", func(p *sim.Proc) {
			for i := 0; i < 2; i++ {
				m := nw.RecvID(p, 1, ch)
				got = append(got, m.Payload)
				nw.FreeMessage(m)
			}
		})
		eng.Go("drive", func(p *sim.Proc) {
			nw.SendGather(0, 1, []GatherPart{
				{Chan: ch, Size: 64, Payload: "one"},
				{Chan: ch, Size: 64, Payload: "two"},
			}, 5*sim.Microsecond)
			p.Advance(100 * sim.Microsecond)
			if nw.FaultStats().Held != 1 {
				t.Errorf("Held = %d, want 1 (the envelope held as a unit)", nw.FaultStats().Held)
			}
			// A later envelope is built in the same scratch list the held
			// one was: the hold must have taken its own copy.
			nw.SendGather(1, 0, []GatherPart{
				{Chan: ch, Size: 64, Payload: "three"},
				{Chan: ch, Size: 64, Payload: "four"},
			}, 5*sim.Microsecond)
			nw.HealLink(0, 1)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != "one" || got[1] != "two" {
			t.Fatalf("after heal received %v, want [one two]", got)
		}
	})
	t.Run("crash-while-held", func(t *testing.T) {
		eng := sim.NewEngine(1)
		nw := NewNetwork(eng, BIPMyrinet, 2)
		nw.PartitionLink(0, 1)
		ch := nw.ChannelID("ch")
		seen := map[interface{}]int{}
		nw.SetDropHandler(func(p interface{}) { seen[p]++ })
		pa, pb := &struct{ int }{1}, &struct{ int }{2}
		eng.Go("drive", func(p *sim.Proc) {
			nw.SendGather(0, 1, []GatherPart{
				{Chan: ch, Size: 64, Payload: pa},
				{Chan: ch, Size: 64, Payload: pb},
			}, 5*sim.Microsecond)
			p.Advance(100 * sim.Microsecond)
			nw.CrashNode(1) // envelope still parked on the partitioned link
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if len(seen) != 2 || seen[pa] != 1 || seen[pb] != 1 {
			t.Fatalf("drop handler counts = %v, want both parts exactly once", seen)
		}
	})
}
