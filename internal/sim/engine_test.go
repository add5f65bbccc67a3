package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEngine(1)
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events fired in order %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", got)
		}
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	e := NewEngine(1)
	fired := Time(-1)
	e.Schedule(100, func() {
		e.Schedule(50, func() { fired = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("past-scheduled event fired at %v, want clamp to 100", fired)
	}
}

func TestAdvanceMovesClock(t *testing.T) {
	e := NewEngine(1)
	var at1, at2 Time
	e.Go("worker", func(p *Proc) {
		p.Advance(10 * Microsecond)
		at1 = p.Now()
		p.Advance(5 * Microsecond)
		at2 = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != Time(10*Microsecond) || at2 != Time(15*Microsecond) {
		t.Fatalf("advance times = %v, %v; want 10us, 15us", at1, at2)
	}
}

func TestNegativeAdvanceIsZero(t *testing.T) {
	e := NewEngine(1)
	e.Go("w", func(p *Proc) {
		p.Advance(-5)
		if p.Now() != 0 {
			t.Errorf("negative advance moved clock to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine(42)
		var log []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			e.Go(name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					log = append(log, fmt.Sprintf("%s@%v", p.Name(), p.Now()))
					p.Advance(Duration(p.ID()) * Microsecond)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	e.Go("stuck", func(p *Proc) {
		p.Park("waiting forever")
	})
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run returned %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("deadlock report lists %d procs, want 1", len(de.Blocked))
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine(1)
	var p1 *Proc
	order := []string{}
	p1 = e.Go("sleeper", func(p *Proc) {
		order = append(order, "park")
		p.Park("test")
		order = append(order, "resumed")
	})
	e.Schedule(50, func() { p1.Unpark() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[1] != "resumed" {
		t.Fatalf("park/unpark order = %v", order)
	}
}

func TestStopAbortsRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Go("looper", func(p *Proc) {
		for {
			count++
			if count == 5 {
				e.Stop()
			}
			p.Advance(Microsecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("loop ran %d times after Stop, want 5", count)
	}
}

func TestAdvanceOutsideSimContextPanics(t *testing.T) {
	e := NewEngine(1)
	var p *Proc
	p = e.Go("w", func(pp *Proc) {})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Advance from outside simulation context did not panic")
		}
	}()
	p.Advance(1)
}

func TestRandDeterministic(t *testing.T) {
	a := NewEngine(7).Rand().Int63()
	b := NewEngine(7).Rand().Int63()
	if a != b {
		t.Fatalf("same-seed engines produced different randoms: %d vs %d", a, b)
	}
	c := NewEngine(8).Rand().Int63()
	if a == c {
		t.Fatalf("different seeds produced identical randoms")
	}
}

// TestRandSeededByFirstDraw: a run that never draws leaves the engine's
// source unseeded (a seeded source is 5 KB that a parked system would pin),
// and the stream the first draw starts, through every rand.Rand entry point
// and across a reseed, is rand.New(rand.NewSource(seed))'s.
func TestRandSeededByFirstDraw(t *testing.T) {
	e := NewEngine(42)
	e.Go("w", func(p *Proc) { p.Advance(Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.rngSrc.src != nil {
		t.Fatal("a run that never drew seeded the engine's source")
	}
	same := func(seed int64) {
		t.Helper()
		want, got := rand.New(rand.NewSource(seed)), e.Rand()
		for i := 0; i < 4; i++ {
			if a, b := got.Int63(), want.Int63(); a != b {
				t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, i, a, b)
			}
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, i, a, b)
			}
			if a, b := got.Intn(1000), want.Intn(1000); a != b {
				t.Fatalf("seed %d draw %d: Intn %d, want %d", seed, i, a, b)
			}
		}
	}
	same(42)
	if e.rngSrc.src == nil {
		t.Fatal("the source stayed unseeded after drawing")
	}
	e.Rand().Seed(7)
	if e.rngSrc.src != nil {
		t.Fatal("a reseed seeded the source before any draw")
	}
	same(7)
}

// TestNewRandStream: the lazily seeded stream NewRand hands the fault layer
// is rand.New(rand.NewSource(seed))'s.
func TestNewRandStream(t *testing.T) {
	got, want := NewRand(9), rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		if a, b := got.Float64(), want.Float64(); a != b {
			t.Fatalf("draw %d: %v, want %v", i, a, b)
		}
	}
}

// TestBoundStopsPastTheInstant: under Bound(t) a run that queues nothing
// past t is untouched, and one that does stops before the clock passes t,
// with Run reporting it.
func TestBoundStopsPastTheInstant(t *testing.T) {
	e := NewEngine(1)
	lift := e.Bound(Time(10 * Microsecond))
	defer lift()
	e.Go("w", func(p *Proc) { p.Advance(10 * Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatalf("a run ending at the bound: %v", err)
	}
	e.Go("loop", func(p *Proc) {
		for {
			p.Advance(Microsecond)
		}
	})
	if err := e.Run(); err == nil || !strings.Contains(err.Error(), "past its bound") {
		t.Fatalf("a run that never ends: Run = %v, want it stopped at the bound", err)
	}
	if e.Now() != Time(10*Microsecond) {
		t.Fatalf("clock %v, want it held at the bound", e.Now())
	}

	// Records queued past the bound are no error while none of them fires:
	// a run paused at the bound holds in-flight ones.
	e = NewEngine(1)
	lift = e.Bound(Time(10 * Microsecond))
	fired := false
	e.Go("w", func(p *Proc) {
		e.Schedule(Time(15*Microsecond), func() { fired = true })
		p.Advance(10 * Microsecond)
		e.Stop()
		p.Advance(Microsecond)
	})
	if err := e.Run(); err != nil || fired {
		t.Fatalf("a run paused at the bound: Run = %v, past record fired = %v", err, fired)
	}
	lift()
	if err := e.Run(); err != nil || !fired || e.Now() != Time(15*Microsecond) {
		t.Fatalf("unbounded, the run goes on: Run = %v, fired = %v, clock %v", err, fired, e.Now())
	}
}

// pausedWorkload runs a mixed workload (procs advancing by random amounts,
// messages pushed to a consumer that waits with timeouts, call records) and
// logs what fires, in order. After its i-th entry, it pauses the run when
// stopAt(i) holds, from a proc or from engine context, and runs it again
// until it ends.
func pausedWorkload(t *testing.T, stopAt func(i int) bool) (log []string, events uint64, now Time, pauses int) {
	e := NewEngine(5)
	note := func(what string) {
		log = append(log, fmt.Sprintf("%v %s", e.Now(), what))
		if stopAt(len(log)) {
			e.Stop()
			pauses++
		}
	}
	ch := new(Chan)
	const workers, rounds = 3, 20
	for w := 0; w < workers; w++ {
		e.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Advance(Duration(1+e.Rand().Intn(5)) * Microsecond)
				note(fmt.Sprintf("w%d.%d", w, i))
				e.SchedulePush(e.Now().Add(2*Microsecond), ch, w*rounds+i)
			}
		})
	}
	e.Go("consumer", func(p *Proc) {
		for got := 0; got < workers*rounds; {
			if v, ok := ch.RecvTimeout(p, 3*Microsecond); ok {
				got++
				note(fmt.Sprint("recv ", v))
			} else {
				note("timeout")
			}
		}
	})
	for k := 1; k <= 10; k++ {
		e.Schedule(Time(k*7)*Time(Microsecond), func() { note(fmt.Sprint("call ", k)) })
	}
	for {
		before := pauses
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if pauses == before {
			return log, e.Events(), e.Now(), pauses
		}
	}
}

// TestStopResumeMatchesUnbroken: a run paused at many points and resumed
// fires the same events in the same order, with the same count and final
// clock, as the unbroken run.
func TestStopResumeMatchesUnbroken(t *testing.T) {
	want, wantEvents, wantNow, _ := pausedWorkload(t, func(int) bool { return false })
	for every := 1; every <= 9; every++ {
		got, events, now, pauses := pausedWorkload(t, func(i int) bool { return i%every == 0 })
		if pauses < len(want)/every {
			t.Fatalf("every %d: %d pauses, want %d", every, pauses, len(want)/every)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("every %d: the paused run fired\n%v\nthe unbroken one\n%v", every, got, want)
		}
		if events != wantEvents || now != wantNow {
			t.Fatalf("every %d: %d events ending at %v, unbroken %d at %v", every, events, now, wantEvents, wantNow)
		}
	}
}

func TestLiveCount(t *testing.T) {
	e := NewEngine(1)
	e.Go("a", func(p *Proc) { p.Advance(10) })
	e.Go("b", func(p *Proc) { p.Advance(20) })
	if e.Live() != 2 {
		t.Fatalf("Live = %d before run, want 2", e.Live())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 0 {
		t.Fatalf("Live = %d after run, want 0", e.Live())
	}
}

func TestNestedSpawn(t *testing.T) {
	e := NewEngine(1)
	var childRan bool
	e.Go("parent", func(p *Proc) {
		p.Advance(5)
		e.Go("child", func(c *Proc) {
			childRan = true
			if c.Now() != 5 {
				t.Errorf("child started at %v, want 5", c.Now())
			}
		})
		p.Advance(5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("nested-spawned child never ran")
	}
}

func TestTimeFormatting(t *testing.T) {
	if got := Time(1500).String(); got != "1.500us" {
		t.Fatalf("Time(1500).String() = %q", got)
	}
	if got := Micros(2.5); got != 2500 {
		t.Fatalf("Micros(2.5) = %d, want 2500", got)
	}
	if d := Time(3000).Sub(Time(1000)); d != 2000 {
		t.Fatalf("Sub = %v", d)
	}
}
