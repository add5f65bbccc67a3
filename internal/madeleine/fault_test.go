package madeleine

import (
	"slices"
	"testing"

	"dsmpm2/internal/sim"
)

// TestDeadNodeDropFreesOnce is the regression test for the pooled-envelope
// discipline on the death paths: a message dropped because its destination
// is dead must return its *Message envelope to the freelist exactly once and
// hand its payload to the drop handler exactly once. A double Put would
// surface as two later sends sharing one envelope.
func TestDeadNodeDropFreesOnce(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 3)
	var dropped []interface{}
	nw.SetDropHandler(func(p interface{}) { dropped = append(dropped, p) })
	nw.CrashNode(1)

	payloadA, payloadB := &struct{ int }{1}, &struct{ int }{2}
	eng.Go("send", func(p *sim.Proc) {
		nw.SendCtrl(0, 1, "ch", payloadA) // dropped: dest dead
		nw.SendCtrl(0, 1, "ch", payloadB) // dropped: dest dead
		// SendDirect to a dead node exercises the direct-path drop too;
		// its payload is not a pooled Message, only the handler runs.
		nw.SendDirect(0, 1, new(sim.Chan), 64, "direct", 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 3 || dropped[0] != payloadA || dropped[1] != payloadB || dropped[2] != "direct" {
		t.Fatalf("drop handler saw %v, want exactly [payloadA payloadB direct]", dropped)
	}

	// Freelist integrity: two live sends must come out as two distinct
	// envelopes. If the two drops above had double-freed one envelope, the
	// freelist would now hand the same *Message out twice.
	var got []*Message
	eng2 := eng // same engine; network state persists
	eng2.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			got = append(got, nw.Recv(p, 2, "live"))
		}
	})
	eng2.Go("send2", func(p *sim.Proc) {
		nw.SendCtrl(0, 2, "live", nil)
		nw.SendCtrl(0, 2, "live", nil)
	})
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] == got[1] {
		t.Fatalf("freelist corrupted: two in-flight sends share one envelope (%p, %p)", got[0], got[1])
	}
	if st := nw.FaultStats(); st.DeadDrops != 3 {
		t.Fatalf("DeadDrops = %d, want 3", st.DeadDrops)
	}
}

// TestCrashPurgesQueuedMessages: messages already delivered to a node's
// queues when it crashes are reclaimed (envelope freed, payload dropped),
// and messages in flight at crash time land in the orphaned queues of the
// dead incarnation, never in the restarted node's fresh queues.
func TestCrashPurgesQueuedMessages(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	var dropped []interface{}
	nw.SetDropHandler(func(p interface{}) { dropped = append(dropped, p) })

	eng.Go("send", func(p *sim.Proc) {
		nw.SendCtrl(0, 1, "ch", "queued") // delivered, then crash purges it
		p.Advance(sim.Millisecond)
		nw.SendCtrl(0, 1, "ch", "inflight") // departs; node dies before arrival
		p.Advance(10 * sim.Microsecond)     // after departure, before delivery
		nw.CrashNode(1)
		p.Advance(sim.Millisecond)
		nw.RestartNode(1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != "queued" {
		t.Fatalf("crash purge dropped %v, want [queued]", dropped)
	}
	// The in-flight message must not be receivable by the new incarnation.
	if _, ok := nw.TryRecv(1, "ch"); ok {
		t.Fatal("restarted node received a message sent to its dead incarnation")
	}
}

// TestPartitionQueueHoldsAndHeals: messages sent over a partitioned link
// arrive after the heal, in order, and the held time is accounted.
func TestPartitionQueueHoldsAndHeals(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	nw.PartitionLink(0, 1)

	var arrivals []sim.Time
	var order []interface{}
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			m := nw.Recv(p, 1, "ch")
			arrivals = append(arrivals, p.Now())
			order = append(order, m.Payload)
		}
	})
	healAt := sim.Time(0).Add(5 * sim.Millisecond)
	eng.Go("send", func(p *sim.Proc) {
		nw.SendCtrl(0, 1, "ch", "first")
		nw.SendCtrl(0, 1, "ch", "second")
		p.Advance(5 * sim.Millisecond)
		nw.HealLink(0, 1)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != "first" || order[1] != "second" {
		t.Fatalf("FIFO violated across heal: %v", order)
	}
	for _, at := range arrivals {
		if at < healAt {
			t.Fatalf("message arrived at %v, before the heal at %v", at, healAt)
		}
	}
	st := nw.FaultStats()
	if st.Held != 2 || st.HeldTime <= 0 {
		t.Fatalf("hold accounting: %+v", st)
	}
}

// TestCrashDropsHeldMessagesFromCorpse: a message held on a partitioned
// link whose SENDER then crashes must never be delivered after the heal —
// fail-stop means nothing sent by the dead incarnation surfaces later, even
// if the sender has since restarted.
func TestCrashDropsHeldMessagesFromCorpse(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	var dropped int
	nw.SetDropHandler(func(interface{}) { dropped++ })
	eng.Go("driver", func(p *sim.Proc) {
		nw.PartitionLink(0, 1)
		nw.SendCtrl(0, 1, "ch", "ghost") // held on the partitioned link
		p.Advance(sim.Millisecond)
		nw.CrashNode(0) // sender dies with its message still held
		p.Advance(sim.Millisecond)
		nw.RestartNode(0)
		nw.HealLink(0, 1)
		p.Advance(10 * sim.Millisecond)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if _, ok := nw.TryRecv(1, "ch"); ok {
		t.Fatal("a dead incarnation's held message was delivered after the heal")
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

// TestLinkLossDeterministic: loss draws come from the fault layer's private
// PRNG, so the same seed loses the same transmissions: the same retransmits,
// and every message at the same instant.
func TestLinkLossDeterministic(t *testing.T) {
	run := func() (arrivals []sim.Time, st FaultStats) {
		eng := sim.NewEngine(1)
		nw := NewNetwork(eng, BIPMyrinet, 2)
		nw.SeedLoss(99)
		nw.SetLinkLoss(0, 1, 0.5, 0)
		eng.Go("recv", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				nw.Recv(p, 1, "ch")
				arrivals = append(arrivals, p.Now())
			}
		})
		eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				nw.SendCtrl(0, 1, "ch", i)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return arrivals, nw.FaultStats()
	}
	a, sa := run()
	b, sb := run()
	if !slices.Equal(a, b) || sa != sb {
		t.Fatalf("same seed: arrivals %v, %+v\nthen %v, %+v", a, sa, b, sb)
	}
	if sa.Retransmits == 0 {
		t.Fatalf("loss rate 0.5 lost nothing of 40 — draws not happening: %+v", sa)
	}
}

// TestLossyLinkDeliversOnceInOrder: a link that loses half its transmissions
// and duplicates 30% of them still hands the receiver every message exactly
// once, in send order — plain messages and gathered envelopes alike, sent
// through a partition that cuts the link mid-stream — and a lost
// transmission costs time, not the message.
func TestLossyLinkDeliversOnceInOrder(t *testing.T) {
	const msgs = 60
	for seed := int64(1); seed <= 10; seed++ {
		eng := sim.NewEngine(1)
		nw := NewNetwork(eng, BIPMyrinet, 2)
		nw.SetLinkContention(true)
		nw.SeedLoss(seed)
		nw.SetLinkLoss(0, 1, 0.5, 0.3)
		ch := nw.ChannelID("ch")
		var got []interface{}
		eng.Go("recv", func(p *sim.Proc) {
			for len(got) < msgs {
				got = append(got, nw.RecvID(p, 1, ch).Payload)
			}
		})
		eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < msgs; i += 3 {
				nw.SendID(0, 1, ch, 64, i, nw.Link(0, 1).CtrlMsg)
				nw.SendGather(0, 1, []GatherPart{{Chan: ch, Size: 32, Payload: i + 1}, {Chan: ch, Size: 32, Payload: i + 2}},
					nw.Link(0, 1).CtrlMsg)
				if i == msgs/2 {
					nw.PartitionLink(0, 1)
				}
				p.Advance(5 * sim.Microsecond)
				if i == msgs/2+9 {
					nw.HealLink(0, 1)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("seed %d: delivery %d carried %v; want every message once, in order: %v", seed, i, v, got)
			}
		}
		if _, ok := nw.TryRecvID(1, ch); ok {
			t.Fatalf("seed %d: a message was delivered twice", seed)
		}
		if st := nw.FaultStats(); st.Retransmits == 0 || st.Duplicated == 0 || st.Dropped != 0 {
			t.Fatalf("seed %d: %+v, want retransmits and duplicates, nothing dropped", seed, st)
		}
	}
}

// TestDuplicateOccupiesLinkOnly: a link that duplicates every message hands
// the receiver each message once, at the time a reliable link that carries
// every message twice, copy first, delivers the second copy. A duplicate
// costs link time and nothing else.
func TestDuplicateOccupiesLinkOnly(t *testing.T) {
	const msgs, size = 5, 4096
	run := func(dup bool) (payloads []interface{}, arrivals []sim.Time) {
		eng := sim.NewEngine(1)
		nw := NewNetwork(eng, BIPMyrinet, 2)
		nw.SetLinkContention(true)
		copies := 2
		if dup {
			nw.SetLinkLoss(0, 1, 0, 1)
			copies = 1
		}
		eng.Go("recv", func(p *sim.Proc) {
			for i := 0; i < msgs*copies; i++ {
				m := nw.Recv(p, 1, "ch")
				if i%copies == copies-1 {
					payloads = append(payloads, m.Payload)
					arrivals = append(arrivals, p.Now())
				}
			}
		})
		eng.Go("send", func(p *sim.Proc) {
			for i := 0; i < msgs; i++ {
				for c := 0; c < copies; c++ {
					nw.SendBulk(0, 1, "ch", size, i)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if _, ok := nw.TryRecv(1, "ch"); ok {
			t.Fatalf("dup %v: a message was delivered twice", dup)
		}
		if got := nw.FaultStats().Duplicated; dup && got != msgs {
			t.Fatalf("Duplicated = %d, want %d", got, msgs)
		}
		return payloads, arrivals
	}
	gotP, gotT := run(true)
	wantP, wantT := run(false)
	if !slices.Equal(gotP, wantP) || !slices.Equal(gotT, wantT) {
		t.Fatalf("duplicating link delivered %v at %v,\nreliable link carrying each twice %v at %v", gotP, gotT, wantP, wantT)
	}
}
