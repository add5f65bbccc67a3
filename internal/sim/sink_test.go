package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// A sink (Chan.SetSink) replaces a receiver proc that never blocks between
// receives, and SpawnInto lets the layer above recycle a finished proc's
// storage. These pin that neither can be told from what it replaced, and that
// their misuse fails loudly.

// sinkSchedule is one random arrival schedule: messages pushed onto one
// channel by push records, by bystander procs and by closures, at instants
// drawn from a small set so that bursts, arrivals behind a pending drain and
// bystanders waking at the same instant all happen.
type sinkSchedule struct {
	pushes     [][2]int // (instant, message) delivered by SchedulePush
	closures   [][2]int // (instant, message) pushed by a closure event
	bystanders [][]int  // per bystander: the instants it wakes at, ascending; it pushes at odd ones
}

func randomSinkSchedule(rng *rand.Rand) sinkSchedule {
	var s sinkSchedule
	instants := 1 + rng.Intn(6)
	msg := 0
	for i, n := 0, rng.Intn(12); i < n; i++ {
		s.pushes = append(s.pushes, [2]int{rng.Intn(instants), msg})
		msg++
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		s.closures = append(s.closures, [2]int{rng.Intn(instants), 100 + msg})
		msg++
	}
	for b, n := 0, rng.Intn(4); b < n; b++ {
		var at []int
		for t := 0; t < instants; t++ {
			if rng.Intn(2) == 0 {
				at = append(at, t)
			}
		}
		s.bystanders = append(s.bystanders, at)
	}
	return s
}

// run plays the schedule with the channel consumed either by a parked daemon
// receiver proc or by a sink; both spawn one child proc per message. It
// returns the trace of every child start and bystander wake in the order they
// happened (children by message, and by proc id relative to the first proc
// that is not the receiver), the event count and the final seq.
func (s sinkSchedule) run(sink bool) (trace string, events, seq uint64) {
	e := NewEngine(1)
	ch := new(Chan)
	var log strings.Builder
	idBase := 0
	child := func(v interface{}) {
		e.Go("child", func(p *Proc) {
			fmt.Fprintf(&log, "child %v #%d @%v\n", v, p.ID()-idBase, p.Now())
			p.Advance(Duration(v.(int)%3) * Microsecond)
			fmt.Fprintf(&log, "child %v done @%v\n", v, p.Now())
		})
	}
	if sink {
		ch.SetSink(e, child)
	} else {
		idBase = 1
		e.Go("receiver", func(p *Proc) {
			for {
				child(ch.Recv(p))
			}
		}).MarkDaemon()
	}
	at := func(instant int) Time { return Time(instant) * Time(10*Microsecond) }
	for _, pm := range s.pushes {
		e.SchedulePush(at(pm[0]), ch, pm[1])
	}
	for _, cm := range s.closures {
		e.Schedule(at(cm[0]), func() {
			fmt.Fprintf(&log, "closure %d @%v\n", cm[1], e.Now())
			ch.Push(cm[1])
		})
	}
	for b, wakes := range s.bystanders {
		e.Go(fmt.Sprintf("by%d", b), func(p *Proc) {
			for _, w := range wakes {
				p.Advance(at(w).Sub(p.Now()))
				fmt.Fprintf(&log, "by%d #%d @%v\n", b, p.ID()-idBase, p.Now())
				if w%2 == 1 {
					ch.Push(1000 + 10*b + w)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		panic(err)
	}
	return log.String(), e.Events(), e.seq
}

// TestSinkMatchesParkedReceiver: over seeded random schedules, a sink that
// spawns a child per message and a parked receiver proc that does are
// indistinguishable — every child starts at the same time and in the same
// order relative to every other event, with the same proc id offset — and the
// kernel's own counters differ by exactly the receiver's start-up wake.
func TestSinkMatchesParkedReceiver(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	bursts, behindDrain := 0, 0
	for i := 0; i < 1500; i++ {
		s := randomSinkSchedule(rng)
		want, wantEvents, wantSeq := s.run(false)
		got, gotEvents, gotSeq := s.run(true)
		if got != want {
			t.Fatalf("schedule %d (%+v): sink trace differs from the parked receiver's\n got:\n%s\nwant:\n%s", i, s, got, want)
		}
		if gotEvents != wantEvents-1 || gotSeq != wantSeq-1 {
			t.Fatalf("schedule %d: sink run fired %d events to seq %d, receiver run %d to %d; want one less each (the receiver's start-up wake)",
				i, gotEvents, gotSeq, wantEvents, wantSeq)
		}
		// What the schedules exercised: same-instant bursts of push records
		// (the second lands while the first's drain is pending) and arrivals
		// pushed by a proc or closure at an instant that also has push records.
		seen := map[int]int{}
		for _, pm := range s.pushes {
			seen[pm[0]]++
		}
		for _, n := range seen {
			if n > 1 {
				bursts++
			}
		}
		for _, cm := range s.closures {
			if seen[cm[0]] > 0 {
				behindDrain++
			}
		}
	}
	if bursts < 100 || behindDrain < 100 {
		t.Fatalf("schedules held %d same-instant bursts and %d arrivals behind a drain: the generator no longer covers them", bursts, behindDrain)
	}
}

// TestSinkDrainsWhatWasQueuedAtBinding: messages that arrived before the
// channel was bound are handed over by a drain record at the binding instant,
// as a receiver proc starting then would have found them.
func TestSinkDrainsWhatWasQueuedAtBinding(t *testing.T) {
	e := NewEngine(1)
	ch := new(Chan)
	ch.Push("early")
	var got []string
	e.Schedule(5, func() {
		ch.SetSink(e, func(v interface{}) { got = append(got, fmt.Sprintf("%v@%d", v, e.Now())) })
	})
	e.SchedulePush(7, ch, "late")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[early@5 late@7]" {
		t.Fatalf("sink saw %v", got)
	}
	if qs := e.QueueStats(); qs.Drains != 2 {
		t.Fatalf("%d drains, want 2", qs.Drains)
	}
}

// TestClearSinkStopsConsuming: after ClearSink a pending drain record does
// nothing, later pushes stay queued, and TryRecv can sweep them up.
func TestClearSinkStopsConsuming(t *testing.T) {
	e := NewEngine(1)
	ch := new(Chan)
	ch.SetSink(e, func(v interface{}) { t.Errorf("sink consumed %v after ClearSink", v) })
	e.Schedule(5, func() {
		ch.Push(1) // drain record pending at t=5 ...
		ch.ClearSink()
	})
	e.SchedulePush(9, ch, 2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 2; want++ {
		if v, ok := ch.TryRecv(); !ok || v != want {
			t.Fatalf("TryRecv = %v, %v; want %d", v, ok, want)
		}
	}
}

// TestSinkUnbindsItself: a sink that clears its own channel's binding stops
// the drain it runs in; what is still queued waits for TryRecv, and binding
// the channel again hands on what arrives next.
func TestSinkUnbindsItself(t *testing.T) {
	e := NewEngine(1)
	ch := new(Chan)
	var got []interface{}
	var sink func(v interface{})
	sink = func(v interface{}) {
		got = append(got, v)
		ch.ClearSink()
	}
	ch.SetSink(e, sink)
	e.Schedule(5, func() { ch.Push(1); ch.Push(2) })
	e.Schedule(6, func() {
		if v, ok := ch.TryRecv(); !ok || v != 2 {
			t.Errorf("TryRecv = %v, %v; want 2", v, ok)
		}
		ch.SetSink(e, sink)
		ch.Push(3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 3]" {
		t.Fatalf("sink saw %v, want [1 3]", got)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), want) {
			t.Fatalf("panic %v, want one mentioning %q", v, want)
		}
	}()
	fn()
}

// TestSinkMisusePanics: a bound channel has exactly one consumer. Recv and
// RecvTimeout on it, and binding a channel procs are parked on, would have a
// message consumed twice or never; TryRecv stays legal.
func TestSinkMisusePanics(t *testing.T) {
	e := NewEngine(1)
	bound := new(Chan)
	bound.SetSink(e, func(interface{}) {})
	waited := new(Chan)
	e.Go("receiver", func(p *Proc) { waited.Recv(p) }).MarkDaemon()
	e.Go("misuser", func(p *Proc) {
		mustPanic(t, "Recv on a channel bound to a sink", func() { bound.Recv(p) })
		mustPanic(t, "RecvTimeout on a channel bound to a sink", func() { bound.RecvTimeout(p, Microsecond) })
		if _, ok := bound.TryRecv(); ok {
			t.Error("TryRecv on an empty bound channel returned a message")
		}
		p.Yield() // the receiver is parked by now
		mustPanic(t, "SetSink on a channel with parked receivers", func() { waited.SetSink(e, func(interface{}) {}) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnIntoGuards: storage holding a proc that is still live, or one that
// was killed (wake records for it may be queued, and only its dead mark stops
// them), must not be spawned over; a finished proc's may.
func TestSpawnIntoGuards(t *testing.T) {
	e := NewEngine(1)
	nop := runnerFunc(func(*Proc) {})
	var live, killed, finished Proc
	e.SpawnInto(&live, "live", 0, runnerFunc(func(p *Proc) { p.Park("forever") })).MarkDaemon()
	e.SpawnInto(&killed, "killed", 0, runnerFunc(func(p *Proc) { p.Advance(100) }))
	e.SpawnInto(&finished, "finished", 0, nop)
	ran := false
	e.Schedule(50, func() {
		killed.Kill()
		mustPanic(t, `SpawnInto over proc "live"`, func() { e.SpawnInto(&live, "x", 50, nop) })
		mustPanic(t, `SpawnInto over proc "killed"`, func() { e.SpawnInto(&killed, "x", 50, nop) })
		finished.Kill() // a no-op on a proc that returned: still reusable
		e.SpawnInto(&finished, "again", 50, runnerFunc(func(p *Proc) { ran = p.Name() == "again" && p.ID() == 4 }))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || !finished.Dead() {
		t.Fatal("the proc spawned into a finished proc's storage did not run to its end")
	}
}

// TestSpawnIntoStaleDeadline: tenant A's timed waits end early and leave two
// unexpired deadline records behind. Tenant B, spawned into A's storage, parks
// bare across the first and is not woken by it; B's own timed wait then spans
// the second — which carries the generation a fresh proc's first wait would
// have — and still times out on its own deadline.
func TestSpawnIntoStaleDeadline(t *testing.T) {
	e := NewEngine(1)
	ch := new(Chan)
	var storage Proc
	e.SpawnInto(&storage, "a", 0, runnerFunc(func(p *Proc) {
		ch.RecvTimeout(p, 300) // generation 1, record at t=300, satisfied at t=10
		ch.RecvTimeout(p, 88)  // generation 2, record at t=100, satisfied at t=12
	}))
	e.SchedulePush(10, ch, "x")
	e.SchedulePush(12, ch, "y")
	wokeAt, timedOutAt := Time(-1), Time(-1)
	e.Schedule(20, func() {
		e.SpawnInto(&storage, "b", 20, runnerFunc(func(p *Proc) {
			p.Park("gate") // a bare park: any wake at all resumes it
			wokeAt = p.Now()
			if _, ok := ch.RecvTimeout(p, 500); !ok {
				timedOutAt = p.Now()
			}
		}))
	})
	e.Schedule(150, func() { storage.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 150 || timedOutAt != 650 {
		t.Fatalf("b woke at %v and timed out at %v, want 150 and 650 (a stale deadline of a reached it)", wokeAt, timedOutAt)
	}
	if qs := e.QueueStats(); qs.DeadlineInert != 2 || qs.DeadlineLive != 1 {
		t.Fatalf("deadline records: %d inert, %d live; want a's two inert and b's one live", qs.DeadlineInert, qs.DeadlineLive)
	}
}
