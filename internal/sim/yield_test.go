package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A yielding proc fires the engine-context records ahead of the next resume
// itself, on its own stack (see Engine.fireUntilWake). These pin that such a
// record sees what it would see fired by the event loop, and that whatever it
// does — kill the proc, stop the engine, panic, exit the goroutine — ends the
// same way.

// onYieldingStack reports whether the caller runs inside a yielding proc's
// fireUntilWake rather than in the event loop's own dispatch.
func onYieldingStack() bool {
	buf := make([]byte, 64<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "fireUntilWake")
}

// yieldOnto spawns a proc that schedules fn 5 ns ahead and advances onto it:
// fn is the head of the queue, its own wake right behind. after runs if the
// proc is resumed.
func yieldOnto(e *Engine, fn func(), after func(p *Proc)) *Proc {
	return e.Go("yielder", func(p *Proc) {
		e.Schedule(p.Now().Add(5), fn)
		p.Advance(5)
		after(p)
	})
}

// A record a yielding proc fires sees Cur() == nil, as it would fired by the
// event loop, and the proc then runs on at its own wake without a switch.
func TestYieldFiresInEngineContext(t *testing.T) {
	e := NewEngine(1)
	var firedCur, afterCur *Proc
	onStack := false
	y := yieldOnto(e, func() {
		firedCur, onStack = e.Cur(), onYieldingStack()
	}, func(p *Proc) { afterCur = e.Cur() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !onStack {
		t.Fatal("the record was not fired by the yielding proc")
	}
	if firedCur != nil {
		t.Errorf("a record fired by a yielding proc saw Cur() = %q, want nil", firedCur.Name())
	}
	if afterCur != y {
		t.Errorf("the proc ran on with Cur() = %v", afterCur)
	}
	if qs := e.QueueStats(); qs.Resumes != 1 || qs.SelfWakes != 1 || qs.Calls != 1 {
		t.Errorf("resumes/self-wakes/calls = %d/%d/%d, want 1/1/1", qs.Resumes, qs.SelfWakes, qs.Calls)
	}
}

// A record the yielding proc fires may kill it: the proc then switches out
// for good, at once, its wake is skipped, and the run ends as if the event
// loop had fired the kill.
func TestYieldFiredKillLeavesProcUnresumed(t *testing.T) {
	e := NewEngine(1)
	e.Go("waiter", func(p *Proc) { p.Park("forever") })
	var y *Proc
	resumed, onStack, nextOnStack := false, false, true
	y = yieldOnto(e, func() {
		y.Kill()
		onStack = onYieldingStack()
		e.Schedule(e.Now(), func() { nextOnStack = onYieldingStack() })
	}, func(*Proc) { resumed = true })
	err := e.Run()
	if !onStack {
		t.Fatal("the kill was not fired by the yielding proc")
	}
	if nextOnStack {
		t.Error("the killed proc went on firing records")
	}
	if resumed {
		t.Error("a proc killed while yielding was resumed")
	}
	if !y.Dead() || e.Live() != 1 {
		t.Errorf("dead=%v live=%d, want the yielder dead and the waiter alone live", y.Dead(), e.Live())
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) || len(dl.Blocked) != 1 || dl.Blocked[0] != "waiter (forever)" {
		t.Errorf("Run = %v, want a deadlock of the waiter alone", err)
	}
	if qs := e.QueueStats(); qs.Resumes != 2 {
		t.Errorf("%d resumes, want the two start-ups only", qs.Resumes)
	}
}

// Stop from a record the yielding proc fires ends Run after that record: the
// next record at the same instant does not fire, nor is the proc resumed.
func TestYieldFiredStopEndsRun(t *testing.T) {
	e := NewEngine(1)
	resumed, later, onStack := false, false, false
	yieldOnto(e, func() {
		e.Stop()
		onStack = onYieldingStack()
		e.Schedule(e.Now(), func() { later = true })
	}, func(*Proc) { resumed = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !onStack {
		t.Fatal("the stop was not fired by the yielding proc")
	}
	if resumed || later {
		t.Errorf("after the stop: proc resumed=%v, later record fired=%v", resumed, later)
	}
	if e.Events() != 2 {
		t.Errorf("%d events fired, want the start-up and the stop", e.Events())
	}
}

// firingRun is a run in which a failing call record fires at t=5, and where
// it ran.
type firingRun struct {
	name    string
	run     func() error
	onStack bool // the record ran on a yielding proc's stack
}

// firingRuns builds two runs in which fail fires as a call record: once from
// the event loop, with no proc to yield onto it (a parking proc would fire
// it too), and once from a proc that yields onto it.
func firingRuns(fail func()) []*firingRun {
	var runs []*firingRun
	for _, fromYield := range []bool{false, true} {
		e := NewEngine(1)
		r := &firingRun{name: "event loop", run: e.Run}
		record := func() {
			r.onStack = onYieldingStack()
			fail()
		}
		if fromYield {
			r.name = "yielding proc"
			e.Go("parked", func(p *Proc) { p.Park("forever") })
			yieldOnto(e, record, func(*Proc) {})
		} else {
			e.Schedule(5, record)
		}
		runs = append(runs, r)
	}
	return runs
}

// A panic in a fired record unwinds out of Run with its value, wherever it
// was fired.
func TestFiredPanicSurfacesFromRun(t *testing.T) {
	for _, r := range firingRuns(func() { panic("record value") }) {
		got := make(chan interface{}, 1)
		go func() {
			defer func() { got <- recover() }()
			r.run()
		}()
		select {
		case v := <-got:
			if v != "record value" {
				t.Errorf("%s: Run's caller recovered %v, want the record's panic value", r.name, v)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Run neither returned nor panicked", r.name)
		}
		if r.onStack != (r.name == "yielding proc") {
			t.Errorf("%s: the record ran on a yielding proc's stack = %v", r.name, r.onStack)
		}
	}
}

// runtime.Goexit in a fired record ends the goroutine that called Run,
// wherever it was fired.
func TestFiredGoexitEndsRunCaller(t *testing.T) {
	for _, r := range firingRuns(runtime.Goexit) {
		exited := make(chan bool, 1)
		go func() {
			returned := false
			defer func() { exited <- !returned }()
			r.run()
			returned = true
		}()
		select {
		case goexit := <-exited:
			if !goexit {
				t.Errorf("%s: Run returned normally although a record called Goexit", r.name)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: Run's caller neither returned nor exited", r.name)
		}
		if r.onStack != (r.name == "yielding proc") {
			t.Errorf("%s: the record ran on a yielding proc's stack = %v", r.name, r.onStack)
		}
	}
}
