package sim

import (
	"fmt"
	"math"
	"testing"
)

// An early signal must retire the deadline record: a timer left in the
// calendar by a wait that was signalled just before its deadline must not
// fire into the proc's next wait on the same condition. With the stale
// record live, the second wait here would return true ("signalled") at the
// first wait's deadline without any signal having been sent.
func TestCondWaitTimeoutEarlySignalRetiresTimer(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	c := NewCond(&m)
	var firstOK, secondOK bool
	var secondAt Time
	e.Go("waiter", func(p *Proc) {
		m.Lock(p)
		firstOK = c.WaitTimeout(p, 100*Microsecond)
		secondOK = c.WaitTimeout(p, 1000*Microsecond)
		secondAt = p.Now()
		m.Unlock(p)
	})
	e.Go("signaler", func(p *Proc) {
		p.Advance(99 * Microsecond) // just before the first deadline
		m.Lock(p)
		c.Signal()
		m.Unlock(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !firstOK {
		t.Fatal("first wait reported timeout despite signal before deadline")
	}
	if secondOK {
		t.Fatal("second wait reported a signal that was never sent (stale timer fired)")
	}
	if want := Time(99 * Microsecond).Add(1000 * Microsecond); secondAt != want {
		t.Fatalf("second wait ended at %v, want its own deadline %v", secondAt, want)
	}
}

// A deadline record for a proc killed mid-wait must be inert when it fires:
// it must neither unpark the dead proc nor disturb the rest of the run.
func TestCondWaitTimeoutKilledWaiter(t *testing.T) {
	e := NewEngine(1)
	var m Mutex
	c := NewCond(&m)
	var w *Proc
	returned := false
	e.Go("waiter", func(p *Proc) {
		w = p
		m.Lock(p)
		c.WaitTimeout(p, 100*Microsecond)
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

// Heavy reuse: one waiter re-arms a timed wait hundreds of times while a
// signaler lands each signal just before the deadline, interleaved with
// rounds that genuinely time out. A true return with no signal outstanding
// means a stale deadline record fired into a later wait. Run under -race in
// CI, this also checks the timer callback's accesses are properly serialized.
func TestCondWaitTimeoutHeavyReuse(t *testing.T) {
	e := NewEngine(11)
	var m Mutex
	c := NewCond(&m)
	const rounds = 300
	ready := 0
	badWakes := 0
	timeouts := 0
	e.Go("waiter", func(p *Proc) {
		m.Lock(p)
		for i := 0; i < rounds; i++ {
			if c.WaitTimeout(p, 100*Microsecond) {
				if ready == 0 {
					badWakes++
				} else {
					ready--
				}
			} else {
				timeouts++
			}
		}
		m.Unlock(p)
	})
	e.Go("signaler", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if i%4 == 3 {
				p.Advance(150 * Microsecond) // let this round time out
				continue
			}
			p.Advance(99 * Microsecond) // just before the waiter's deadline
			m.Lock(p)
			ready++
			c.Signal()
			m.Unlock(p)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if badWakes != 0 {
		t.Fatalf("%d wakes reported a signal that was never sent", badWakes)
	}
	if timeouts == 0 {
		t.Fatal("expected some rounds to time out; scenario lost its teeth")
	}
}

// Same reuse pressure on the channel side: per-request deadlines where most
// messages arrive just before the deadline. Every reported timeout must land
// exactly at arm-time + d, and message accounting must conserve.
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

// A deadline record names its proc, as a wake record does. A proc that advances
// onto the exact instant of its own retired deadline finds that record at the
// head of the queue when it yields, and must not take it for its wake: it would
// run on with its real wake record still queued, and that one would end its
// next park with nothing having released it.
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

// A re-arm record names its proc too. A proc cannot be running while its own
// is queued — fireDeadline pushes one only after taking the proc off its wait
// queue — so this plants one, as fireDeadline would, ahead of the proc's wake
// when it advances. Taken for the wake, it would leave that wake queued to end
// the proc's next park, as above; fired as what it is, with the channel
// empty, it re-arms the wait and the proc runs on at its own wake.
func TestAdvanceOverOwnRearmRecord(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			se := NewShardedEngine(1, shards, Second)
			e := se.Shard(0)
			var ch Chan
			released, spurious := false, false
			w := e.Go("w", func(p *Proc) {
				p.idleTick = 100 * Microsecond
				e.push(e.now, event{proc: p, ch: &ch})
				p.Advance(0)
				// Undo the wait the record armed.
				if !ch.waiters.removeFunc(func(q *Proc) bool { return q == p }) {
					t.Error("the re-arm record did not queue the proc on its channel")
				}
				p.timed = false
				p.Park("until released")
				spurious = !released
			})
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
			if spurious {
				t.Error("park ended before the release: the advance consumed the re-arm record and left its wake queued")
			}
			if qs := se.QueueStats(); qs.Rearms != 1 || qs.DeadlineInert != 1 {
				t.Errorf("re-arms %d, inert deadline records %d, want 1 and 1", qs.Rearms, qs.DeadlineInert)
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
	var m Mutex
	c := NewCond(&m)
	var recvAt, condAt, advAt Time
	e.Spawn("recv", 7, func(p *Proc) {
		if v, ok := ch.RecvTimeout(p, forever); !ok || v != "m" {
			t.Errorf("RecvTimeout(forever) = %v, %v; want the message", v, ok)
		}
		recvAt = p.Now()
	})
	e.Spawn("cond", 7, func(p *Proc) {
		m.Lock(p)
		if !c.WaitTimeout(p, forever) {
			t.Error("WaitTimeout(forever) timed out")
		}
		condAt = p.Now()
		m.Unlock(p)
	})
	e.Spawn("adv", 7, func(p *Proc) {
		p.Advance(forever)
		advAt = p.Now()
	})
	e.SchedulePush(Time(40*Microsecond), &ch, "m")
	e.Schedule(Time(50*Microsecond), c.Signal)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != Time(40*Microsecond) || condAt != Time(50*Microsecond) {
		t.Errorf("waits ended at %v and %v, want 40us and 50us", recvAt, condAt)
	}
	if advAt != maxTime {
		t.Errorf("Advance(forever) ended at %d, want maxTime", advAt)
	}
}
