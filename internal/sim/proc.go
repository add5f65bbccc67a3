package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated thread: code that runs on a worker coroutine, resumed by
// the engine's event loop. Procs advance virtual time explicitly with Advance
// and block with Park; the engine resumes them in deterministic event order.
type Proc struct {
	eng    *Engine
	name   string
	w      *worker // the coroutine the proc is bound to
	id     int32   // shares a word with the flags: a Proc stays in the 112-byte size class
	dead   bool
	killed bool // dead by Kill, not by returning
	daemon bool
	timed  bool // a timed wait is armed (see armDeadline)

	// prev/next link the engine's list of live procs. reason is the Park
	// reason while parked (and waitFor the proc it names, see ParkFor); a
	// park stores two words instead of hashing into a side table.
	prev, next *Proc
	reason     string
	waitFor    *Proc

	// timedGen numbers the proc's timed waits; timed is cleared once the
	// current one timed out or ended (see armDeadline): a deadline record
	// still sitting in the calendar after its wait has ended is inert when it
	// fires (it can never unpark the proc from a later wait). The wait queue
	// rides on the record, not here.
	timedGen uint64

	// body is what the proc runs. The runtime layered above spawns its own
	// thread descriptor as the body (see SpawnInto) and gets it back through
	// Body, so a thread needs no closure and no side slot to find itself.
	body Runner
}

// Runner is the body of a proc: Run executes in simulation context, on the
// proc's coroutine, and the proc is finished when it returns.
type Runner interface {
	Run(p *Proc)
}

// runnerFunc adapts a plain function to Runner. A func value is
// pointer-shaped, so the conversion allocates nothing.
type runnerFunc func(p *Proc)

func (f runnerFunc) Run(p *Proc) { f(p) }

// worker is a coroutine (see iter.Pull) that runs procs, one at a time. A
// simulated thread's host cost must end when the thread does, so the coroutine
// and its grown stack outlive the proc: a worker whose proc finished goes on
// the engine's idle list and the next Spawn binds a fresh Proc to it. Only the
// Proc is new per spawn — ids, names, kill state and stale wake records are
// per proc, and a dead proc's records are skipped by p.dead, so nothing of the
// previous tenant leaks into the next.
//
// The turn passes between goroutines with one switch (see swap). Each
// coroutine is a slot that holds one parked goroutine, not necessarily its
// own: a goroutine that switches through a slot parks in it and runs the one
// parked there. slot records where this worker's goroutine is parked, and
// nexted which half of this coroutine's iter.Pull switches next.
type worker struct {
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	slot   *worker // the coroutine this worker's goroutine is parked in; its own before it first runs
	nexted bool    // next was called last, so yield is the half that switches next
}

// swap parks the calling goroutine in slot s, recording s in *at, and runs the
// goroutine parked there: one coroswitch, through the half of s's iter.Pull
// that this goroutine did not park through — next if it parked through yield or
// never ran, yield if it parked through next. It returns when the caller is
// switched back: true when another goroutine swapped into its slot, false when
// that slot's coroutine ended (see releaseIdle).
func (s *worker) swap(at **worker) bool {
	*at = s
	if s.nexted {
		s.nexted = false
		return s.yield(struct{}{})
	}
	s.nexted = true
	_, ok := s.next()
	return ok
}

// Spawn creates a new simulated thread named name that will start executing
// fn at virtual time start (>= Now). fn runs in simulation context: it may
// call Advance, Park and the synchronization primitives in this package.
func (e *Engine) Spawn(name string, start Time, fn func(p *Proc)) *Proc {
	return e.SpawnInto(new(Proc), name, start, runnerFunc(fn))
}

// SpawnInto is Spawn into storage the caller owns, for a body that is a value
// rather than a closure: the layer above embeds the Proc in its thread
// descriptor, spawns that as the body and recovers it with Body. p is zero or
// a proc whose body has returned: nothing can still name such a proc but the
// deadline record of a timed wait, which timedGen, carried over, keeps inert.
// A live proc may yet be resumed and a killed one may have wake records queued
// that only its dead mark stops, so spawning over either panics.
func (e *Engine) SpawnInto(p *Proc, name string, start Time, body Runner) *Proc {
	w, ok := e.idle.Get()
	if !ok {
		w = e.newWorker()
	}
	return e.spawn(p, name, start, body, w)
}

// SpawnStep spawns p as a step proc, a proc with no coroutine: wherever the
// event loop would resume a thread it calls body.Run(p) in engine context,
// first at Now, then at each of p's wakes. The body must not block: it queues
// (Mutex.LockStep, Resource.AcquireStep) or Sleeps and returns, and ends with
// Exit, each taking the queue place and seq slot a thread's Lock, Acquire,
// Advance or return would. p is zero or a step proc that exited.
func (e *Engine) SpawnStep(p *Proc, name string, body Runner) *Proc {
	return e.spawn(p, name, e.now, body, nil)
}

func (e *Engine) spawn(p *Proc, name string, start Time, body Runner, w *worker) *Proc {
	if p.eng != nil && (!p.dead || p.killed) {
		panic(fmt.Sprintf("sim: SpawnInto over proc %q, which has not finished or was killed", p.name))
	}
	e.nextID++
	*p = Proc{
		eng:      e,
		id:       int32(e.nextID),
		name:     name,
		w:        w,
		next:     e.live,
		timedGen: p.timedGen,
		body:     body,
	}
	if e.live != nil {
		e.live.prev = p
	}
	e.live = p
	e.nlive++
	e.scheduleWake(start, p)
	return p
}

// newWorker creates a worker coroutine, parked in its own slot until a resume
// first switches to it (see work).
func (e *Engine) newWorker() *worker {
	w := &worker{}
	w.slot = w
	w.next, _ = iter.Pull(e.work)
	return w
}

// work is a worker coroutine's body: run the proc the event loop has just made
// e.cur to its end, go idle and run the loop on this stack (see Engine.turn)
// until a resume dispatches the next proc bound to the worker — or, with no
// proc current, releaseIdle ends the coroutine. A panic or runtime.Goexit
// anywhere on the stack, in a body or in a record fired there, is recorded and
// the turn handed home, which raises it again (see Engine.pass): the goroutine
// iter.Pull would wake with it need not be Run's. The failed goroutine stays
// parked.
func (e *Engine) work(yield func(struct{}) bool) {
	p := e.cur
	w := p.w
	w.yield = yield
	returned := false
	defer func() {
		if !returned {
			e.failed, e.panicked = true, recover()
			e.home.swap(&w.slot)
		}
	}()
	for ; p != nil; p = e.cur {
		p.body.Run(p)
		p.Exit()
		e.idle.Put(w)
		e.pass(w, e.turn(w, nil))
	}
	returned = true
}

// Exit ends a step proc, as returning from its body ends a thread.
func (p *Proc) Exit() {
	p.dead = true
	if !p.daemon {
		p.eng.nlive--
	}
	p.eng.unlink(p)
}

// unlink removes p from the live list.
func (e *Engine) unlink(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.live = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
}

// releaseIdle lets go of what only a running engine needs: it ends the idle
// workers' coroutines, synchronously, and drops the burst-sized buffers of the
// pooled rings and of the drained now-ring. Run calls it on return, holding the
// turn: between Run phases nothing can use the workers, and a finished
// simulation must not pin goroutines. A worker bound to a live proc is not on
// the idle list and stays suspended. An ended coroutine wakes the goroutine
// parked in its slot, which may be another proc's, a killed one's or the one
// that called Run; another passes the turn straight back (see Engine.pass).
func (e *Engine) releaseIdle() {
	e.cur = nil
	for w, ok := e.idle.Get(); ok; w, ok = e.idle.Get() {
		w.slot.swap(&e.home)
	}
	e.free.Each((*ring).trim)
	e.nowRing.trim()
}

// Go spawns fn at the current virtual time. It is the common case of Spawn.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.Spawn(name, e.now, fn)
}

// Body returns what the proc was spawned to run (for a proc made by Spawn or
// Go, an opaque adapter around its function).
func (p *Proc) Body() Runner { return p.body }

// MarkDaemon excludes p from run-completion and deadlock accounting. Use it
// for service procs (RPC servers, monitors) that park forever by design:
// a simulation whose only remaining procs are daemons terminates normally.
func (p *Proc) MarkDaemon() {
	if !p.daemon && !p.dead {
		p.daemon = true
		p.eng.nlive--
	}
}

// Daemon reports whether p has been marked as a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// yield suspends the proc until its next wake record fires. The proc's
// goroutine runs the event loop itself (see Engine.turn): when the next
// resume is its own — an uncontended Advance, or one whose wake only
// engine-context records precede — it keeps running with no switch at all;
// otherwise it switches straight to the proc resumed, and returns once some
// goroutine resumes it in turn.
func (p *Proc) yield() {
	e := p.eng
	if q := e.turn(p.w, p); q != p {
		e.pass(p.w, q)
	}
}

// Advance consumes d of virtual time: the proc is suspended and resumes once
// the clock reaches Now+d. Negative durations are treated as zero.
func (p *Proc) Advance(d Duration) {
	p.checkRunning("Advance")
	p.Sleep(d)
	p.yield()
}

// Sleep schedules p's wake d from now (negative d as zero): Advance without
// the wait, for a step proc, which returns after it.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleWake(p.eng.now.Add(d), p)
}

// Park blocks the proc indefinitely; some other party must call Unpark.
// reason is used in deadlock reports.
func (p *Proc) Park(reason string) {
	p.checkRunning("Park")
	p.reason = reason
	p.yield()
	p.reason = ""
}

// ParkFor is Park for a wait on another proc (a join): deadlock reports show
// reason followed by other's name, without the caller building that string on
// every park.
func (p *Proc) ParkFor(reason string, other *Proc) {
	p.waitFor = other
	p.Park(reason)
	p.waitFor = nil
}

// Kill fail-stops the proc: it never runs again. Pending wake records for it
// are skipped by the event loop, and the synchronization primitives skip dead
// procs when granting mutexes, semaphore units, signals or messages, so
// killing a parked proc cannot strand a resource on it. Kill must be called
// from engine context or another proc — a proc cannot kill itself (the event
// loop could not get control back from a proc that never yields again).
//
// The killed proc's goroutine stays parked for the rest of the process (an
// ended coroutine may move it to another slot, see releaseIdle); neither its
// worker nor its storage (see SpawnInto) is ever reused — a
// deliberate leak of one small stack per kill. Unwinding it (resumed once more,
// the proc would have to panic or Goexit out of its body) would run the proc's
// deferred calls in the middle of the simulation, after its resources were
// handed on, far worse than the bounded memory cost of a fault experiment's kills.
func (p *Proc) Kill() {
	if p.dead {
		return
	}
	if p.eng.cur == p {
		panic(fmt.Sprintf("sim: proc %q killing itself", p.name))
	}
	p.dead, p.killed = true, true
	if !p.daemon {
		p.eng.nlive--
	}
	p.eng.unlink(p)
}

// Dead reports whether the proc has finished or been killed.
func (p *Proc) Dead() bool { return p.dead }

// Unpark schedules p to resume at the current virtual time. It may be called
// from any simulation context (another proc or an engine event callback). It
// is an error to unpark a proc that is not parked; the kernel does not check
// this, so the synchronization primitives in this package are careful to
// maintain it.
func (p *Proc) Unpark() {
	e := p.eng
	e.scheduleWake(e.now, p)
}

// checkRunning panics if p is not the proc the event loop is running.
// Blocking operations from outside simulation context would switch out of the
// wrong coroutine, so this fails fast instead.
func (p *Proc) checkRunning(op string) {
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: %s called on proc %q which is not running (cur=%v)",
			op, p.name, curName(p.eng)))
	}
}

func curName(e *Engine) string {
	if e.cur == nil {
		return "<engine>"
	}
	return e.cur.name
}
