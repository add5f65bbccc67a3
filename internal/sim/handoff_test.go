package sim

import (
	"iter"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The turn passes from a yielding proc's goroutine straight to the next
// proc's, one coroutine switch through the slot that goroutine is parked in
// (see worker.swap). These pin who holds the turn when, what happens to a
// goroutine left in the slot of a coroutine that ends, how a failure gets home,
// and the runtime contract the switch relies on.

// Eight procs in lock step — the shape of tsp's li_hudak run — pass the turn
// among themselves: Run's goroutine starts the first and takes the turn back
// once, at the drain.
func TestLockStepHandsHomeOnce(t *testing.T) {
	e := NewEngine(1)
	var lock Mutex
	shared := 0
	for i := 0; i < 8; i++ {
		e.Go("worker", func(p *Proc) {
			for r := 0; r < 50; r++ {
				p.Advance(Microsecond)
				lock.Lock(p)
				shared++
				p.Advance(10)
				lock.Unlock(p)
			}
		})
	}
	if err := runWithin(t, e.Run); err != nil {
		t.Fatal(err)
	}
	if shared != 400 {
		t.Fatalf("%d critical sections ran, want 400", shared)
	}
	if qs := e.QueueStats(); qs.Resumes < 400 {
		t.Fatalf("%d resumes: the procs no longer hand the turn to each other", qs.Resumes)
	}
	if e.homed != 1 {
		t.Errorf("Run's goroutine took the turn back %d times, want once, at the drain", e.homed)
	}
}

// A record due after a proc finished fires on that proc's worker, which runs
// the loop on its own stack once it is idle, not on Run's goroutine.
func TestRecordAfterExitFiresOnWorkerStack(t *testing.T) {
	e := NewEngine(1)
	e.Go("short", func(p *Proc) { p.Advance(5) })
	onStack, cur := false, e.Go("long", func(p *Proc) { p.Advance(20) })
	e.Schedule(10, func() { onStack, cur = onYieldingStack(), e.Cur() })
	if err := runWithin(t, e.Run); err != nil {
		t.Fatal(err)
	}
	if !onStack {
		t.Error("a record due after a proc finished fired on Run's goroutine")
	}
	if cur != nil {
		t.Errorf("the record saw Cur() = %q, want nil", cur.Name())
	}
}

// releaseIdle ends an idle worker's coroutine, which wakes whichever goroutine
// is parked in that worker's own slot. A live proc's goroutine woken that way
// hands the turn back and is resumed in the next Run; a killed proc's stays
// parked for good. Either way the workers' goroutines are gone.
func TestReleaseIdleEndsSlotsOfOthers(t *testing.T) {
	for _, kill := range []bool{false, true} {
		base := runtime.NumGoroutine()
		e := NewEngine(1)
		var a, b *Proc
		inSlot, resumed := false, false
		a = e.Go("a", func(p *Proc) {
			b = e.Go("b", func(*Proc) {
				// a switched straight to b, so a's goroutine sits in the
				// slot of b's worker, which is about to go idle.
				inSlot = a.w.slot == b.w
				if kill {
					a.Kill()
				} else {
					e.Stop()
				}
			})
			p.Advance(1)
			resumed = true
		})
		if err := runWithin(t, e.Run); err != nil {
			t.Fatal(err)
		}
		if !inSlot {
			t.Fatalf("kill=%v: a's goroutine was not parked in b's worker's slot; the test no longer covers it", kill)
		}
		if a.w.slot == b.w {
			t.Errorf("kill=%v: a's goroutine is still recorded in the slot of b's ended coroutine", kill)
		}
		// a's goroutine is all that is left: parked live (Stop) or killed.
		if g := settledGoroutines(base + 1); g != base+1 {
			t.Errorf("kill=%v: %d goroutines after the first Run, want baseline %d + a's", kill, g, base)
		}
		if kill {
			if resumed || e.Live() != 0 {
				t.Errorf("killed a resumed=%v, live=%d", resumed, e.Live())
			}
			continue
		}
		if err := runWithin(t, e.Run); err != nil {
			t.Fatal(err)
		}
		if !resumed || e.Now() != 1 {
			t.Fatalf("a resumed=%v at %v, want true at 1", resumed, e.Now())
		}
		if g := settledGoroutines(base); g != base {
			t.Errorf("%d goroutines after the run ended, baseline %d", g, base)
		}
	}
}

// failInOtherSlot builds, for each kernel flavour, a run whose victim calls
// fail after a hand-off. On the single engine Run's goroutine then sits in the
// slot of the proc that handed the victim the turn, not in the victim's:
// iter.Pull would raise the failure on that proc's goroutine. A shard's home
// resumes every proc itself, so it sits in the victim's worker's slot, and the
// same hand-home path carries the failure out.
func failInOtherSlot(t *testing.T, fail func()) map[string]func() error {
	victim := func(e *Engine, check bool) func(p *Proc) {
		return func(p *Proc) {
			p.Advance(10)
			if check && e.home == p.w {
				t.Error("Run's goroutine sits in the victim's slot; the test no longer covers a failure away from it")
			}
			fail()
		}
	}
	single := NewEngine(1)
	single.Go("handing", func(p *Proc) {
		single.Go("victim", victim(single, true))
		p.Advance(20)
	})

	se := NewShardedEngine(1, 2, 5*Microsecond)
	se.Shard(0).Go("busy", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(Microsecond)
		}
	})
	s1 := se.Shard(1)
	s1.Go("handing", func(p *Proc) {
		s1.Go("victim", victim(s1, false))
		p.Advance(20)
	})
	return map[string]func() error{"single": single.Run, "two shards": se.Run}
}

// A panic raised while Run's goroutine sits in another worker's slot still
// unwinds out of Run with its value.
func TestPanicAwayFromHomeSurfacesFromRun(t *testing.T) {
	for name, run := range failInOtherSlot(t, func() { panic("victim value") }) {
		got := make(chan interface{}, 1)
		go func() {
			defer func() { got <- recover() }()
			run()
		}()
		select {
		case v := <-got:
			if v != "victim value" {
				t.Errorf("%s: Run's caller recovered %v, want the victim's panic value", name, v)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Run neither returned nor panicked", name)
		}
	}
}

// runtime.Goexit raised while Run's goroutine sits in another worker's slot
// ends the goroutine that called Run.
func TestGoexitAwayFromHomeEndsRunCaller(t *testing.T) {
	for name, run := range failInOtherSlot(t, runtime.Goexit) {
		exited := make(chan bool, 1)
		go func() {
			returned := false
			defer func() { exited <- !returned }()
			run()
			returned = true
		}()
		select {
		case goexit := <-exited:
			if !goexit {
				t.Errorf("%s: Run returned normally although the victim called Goexit", name)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Run's caller neither returned nor exited", name)
		}
	}
}

// The runtime contract the hand-off relies on: both halves of an iter.Pull are
// one coroswitch on the Pull's coroutine, which parks the caller in that
// coroutine's slot and runs the goroutine parked there, whoever the caller is
// and whoever that is; a coroutine that returns wakes its slot's occupant with
// false. Three Pulls A, B and C, their next and yield halves called
// alternately from goroutines other than the Pull's own, until each slot holds
// a goroutine not its own; then each coroutine ends. A toolchain that changes
// the contract fails here instead of hanging the kernel.
func TestCoroutineSwitchesToSlotOccupant(t *testing.T) {
	base := runtime.NumGoroutine()
	var log []string
	say := func(who string, ok bool) {
		if !ok {
			who += " (ended)"
		}
		log = append(log, who)
	}
	const a, b, c = 0, 1, 2
	var next [3]func() (struct{}, bool)
	var yield [3]func(struct{}) bool
	bodies := [3]func(){
		a: func() {
			_, ok := next[b]() // parks in B; T wakes it through B's yield
			say("A", ok)
			say("A", yield[c](struct{}{})) // parks in C behind B; T wakes it
		},
		b: func() {
			_, ok := next[c]() // parks in C; A wakes it
			say("B", ok)
			_, ok = next[a]() // parks in A behind C; T wakes it
			say("B", ok)
		},
		c: func() {
			say("C", yield[a](struct{}{})) // hands T the turn; B wakes it
			_, ok := next[b]()             // parks in B behind T; B's end wakes it
			say("C", ok)
			_, ok = next[a]() // parks in A behind T; A's end wakes it
			say("C", ok)
		},
	}
	for i := range bodies {
		next[i], _ = iter.Pull(func(y func(struct{}) bool) {
			yield[i] = y
			bodies[i]()
		})
	}
	done := make(chan struct{})
	go func() { // T
		defer close(done)
		_, ok := next[a]() // parks in A; A, B and C start in turn, C wakes it
		say("T", ok)
		say("T", yield[b](struct{}{})) // A sits in B: wakes A; C wakes T
		say("T", yield[a](struct{}{})) // B sits in A: wakes B, which ends; C wakes T
		_, ok = next[c]()              // A sits in C: wakes A, which ends, then C
		say("T", ok)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("a switch hung after %v: the runtime no longer switches to the slot's occupant", log)
	}
	want := "T A B C T B C (ended) T A C (ended) T (ended)"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("switch order %q, want %q", got, want)
	}
	if g := settledGoroutines(base); g != base {
		t.Errorf("%d goroutines after every coroutine ended, baseline %d", g, base)
	}
}
