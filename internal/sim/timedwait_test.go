package sim

import (
	"fmt"
	"math"
	"testing"
)

// A deadline record for a proc killed mid-wait must be inert when it fires:
// it must neither unpark the dead proc nor disturb the rest of the run.
func TestChanRecvTimeoutKilledWaiter(t *testing.T) {
	e := NewEngine(1)
	var ch Chan
	var w *Proc
	returned := false
	e.Go("waiter", func(p *Proc) {
		w = p
		ch.RecvTimeout(p, 100*Microsecond)
		returned = true
	})
	e.Go("killer", func(p *Proc) {
		p.Advance(50 * Microsecond)
		w.Kill()
		p.Advance(100 * Microsecond) // outlive the stale deadline record
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if returned {
		t.Fatal("killed waiter resumed past its timed wait")
	}
}

// A timed wait satisfied before its deadline leaves an inert deadline record
// behind; the run ends at its last proc's stop, not at that record.
func TestInertDeadlineDoesNotMoveTheEnd(t *testing.T) {
	e := NewEngine(1)
	var ch Chan
	e.Go("waiter", func(p *Proc) {
		if _, ok := ch.RecvTimeout(p, 100); !ok {
			t.Error("the wait timed out")
		}
	})
	e.Schedule(10, func() { ch.Push("m") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10 {
		t.Errorf("run ends at %v, want %v: the inert deadline record moved the clock", e.Now(), Time(10))
	}
	if qs := e.QueueStats(); qs.DeadlineInert != 1 {
		t.Errorf("%d inert deadline records fired, want 1", qs.DeadlineInert)
	}
}

// A message delivered just before the deadline must not leave a timer that
// later yanks the receiver out of the channel's FIFO. With the stale record
// live, receiver A is removed and re-queued behind B when the old timer
// fires, so the next message is misdelivered to B.
func TestChanRecvTimeoutEarlyDeliveryKeepsFIFO(t *testing.T) {
	e := NewEngine(1)
	var ch Chan
	var aFirst string
	var aSecond, bGot interface{}
	var aOK bool
	var aAt Time
	e.Go("A", func(p *Proc) {
		v, ok := ch.RecvTimeout(p, 100*Microsecond)
		if ok {
			aFirst = v.(string)
		}
		aSecond, aOK = ch.RecvTimeout(p, 1000*Microsecond)
		aAt = p.Now()
	})
	// B queues after A's second receive but before the stale deadline.
	e.Spawn("B", Time(99*Microsecond)+500, func(p *Proc) {
		bGot = ch.Recv(p)
	})
	e.Schedule(Time(99*Microsecond), func() { ch.Push("m1") })
	e.Schedule(Time(200*Microsecond), func() { ch.Push("m2") })
	e.Schedule(Time(300*Microsecond), func() { ch.Push("m3") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if aFirst != "m1" {
		t.Fatalf("A's first receive = %q, want m1", aFirst)
	}
	if !aOK || aSecond != "m2" {
		t.Fatalf("A's second receive = %v, %v; want m2 (FIFO position lost to stale timer)", aSecond, aOK)
	}
	if aAt != Time(200*Microsecond) {
		t.Fatalf("A's second receive completed at %v, want 200us", aAt)
	}
	if bGot != "m3" {
		t.Fatalf("B received %v, want m3", bGot)
	}
}

// Heavy reuse: per-request deadlines where most messages arrive just before
// the deadline. Every reported timeout must land exactly at arm-time + d, and
// message accounting must conserve.
func TestChanRecvTimeoutHeavyReuse(t *testing.T) {
	e := NewEngine(23)
	var ch Chan
	const rounds = 300
	received, timeouts := 0, 0
	e.Go("server", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			start := p.Now()
			_, ok := ch.RecvTimeout(p, 100*Microsecond)
			if ok {
				received++
			} else {
				timeouts++
				if p.Now() != start.Add(100*Microsecond) {
					t.Errorf("round %d: timeout at %v, want %v", i, p.Now(), start.Add(100*Microsecond))
				}
			}
		}
	})
	e.Go("client", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if i%3 == 2 {
				p.Advance(180 * Microsecond) // skip a beat: server times out
				continue
			}
			p.Advance(99 * Microsecond)
			ch.Push(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if received+timeouts != rounds {
		t.Fatalf("received %d + timeouts %d != %d rounds", received, timeouts, rounds)
	}
	if received == 0 || timeouts == 0 {
		t.Fatalf("degenerate mix: received=%d timeouts=%d", received, timeouts)
	}
}

// A proc that advances onto the exact instant of its own retired deadline
// finds that record at the head of the queue when it yields, and must fire it
// inert, not take it for its wake: it would run on with its real wake record
// still queued, and that one would end its next park with nothing having
// released it.
func TestAdvanceOntoOwnRetiredDeadline(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// A lookahead of a second puts shard 0's first horizon past every
			// time below, so the proc's yield does look at the queue's head
			// instead of leaving every event to drive.
			se := NewShardedEngine(1, shards, Second)
			e := se.Shard(0)
			var ch Chan
			var resumedAt Time
			released, spurious := false, false
			w := e.Go("w", func(p *Proc) {
				if _, ok := ch.RecvTimeout(p, 100*Microsecond); !ok {
					t.Error("receive timed out despite the message at 40us")
				}
				p.Advance(60 * Microsecond) // wakes at 100us, queued behind the retired deadline
				resumedAt = p.Now()
				p.Park("until released")
				spurious = !released
			})
			e.SchedulePush(Time(40*Microsecond), &ch, "m")
			e.Schedule(Time(200*Microsecond), func() {
				released = true
				w.Unpark()
			})
			if shards > 1 {
				se.Shard(1).Go("bystander", func(p *Proc) { p.Advance(Microsecond) })
			}
			if err := se.Run(); err != nil {
				t.Fatal(err)
			}
			if resumedAt != Time(100*Microsecond) {
				t.Errorf("advance ended at %v, want 100us", resumedAt)
			}
			if spurious {
				t.Error("park ended before the release: the advance consumed the deadline record and left its wake queued")
			}
			if qs := se.QueueStats(); qs.DeadlineInert != 1 || qs.DeadlineLive != 0 {
				t.Errorf("deadline records fired live/inert = %d/%d, want 0/1", qs.DeadlineLive, qs.DeadlineInert)
			}
		})
	}
}

// A "forever" duration must land at the end of virtual time, not wrap into the
// past (where push would clamp it to Now and the infinite wait would time out
// at once).
func TestForeverDurationsSaturate(t *testing.T) {
	const forever = Duration(math.MaxInt64)
	if got := Time(5).Add(forever); got != maxTime {
		t.Fatalf("Time(5).Add(forever) = %d, want maxTime", got)
	}
	if got := maxTime.Add(-3); got != maxTime-3 {
		t.Fatalf("maxTime.Add(-3) = %d, want maxTime-3", got)
	}
	if got := Time(5).Add(-10); got != -5 {
		t.Fatalf("Time(5).Add(-10) = %d, want -5", got)
	}

	e := NewEngine(1)
	var ch Chan
	var recvAt, advAt Time
	e.Spawn("recv", 7, func(p *Proc) {
		if v, ok := ch.RecvTimeout(p, forever); !ok || v != "m" {
			t.Errorf("RecvTimeout(forever) = %v, %v; want the message", v, ok)
		}
		recvAt = p.Now()
	})
	e.Spawn("adv", 7, func(p *Proc) {
		p.Advance(forever)
		advAt = p.Now()
	})
	e.SchedulePush(Time(40*Microsecond), &ch, "m")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != Time(40*Microsecond) {
		t.Errorf("wait ended at %v, want 40us", recvAt)
	}
	if advAt != maxTime {
		t.Errorf("Advance(forever) ended at %d, want maxTime", advAt)
	}
}
