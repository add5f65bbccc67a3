package sim

import "fmt"

// Proc is a simulated thread: code that runs on a worker goroutine only while
// it holds the simulation token. Procs advance virtual time explicitly with
// Advance and block with Park; the engine resumes them in deterministic event
// order.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	wake   chan struct{} // the bound worker's channel
	dead   bool
	daemon bool

	// prev/next link the engine's list of live procs. reason is the Park
	// reason while parked (and waitFor the proc it names, see ParkFor); a
	// park stores two words instead of hashing into a side table.
	prev, next *Proc
	reason     string
	waitFor    *Proc

	// timedGen retires timed-wait deadline records: each armed deadline
	// captures the current value, and the wait bumps it on completion, so a
	// record still sitting in the calendar after its wait has ended is inert
	// when it fires (it can never unpark the proc from a later wait).
	timedGen uint64

	// Local is a free slot for the runtime layered above (PM2 stores the
	// owning thread descriptor here).
	Local interface{}
}

// worker is a goroutine that runs procs, one at a time. A simulated thread's
// host cost must end when the thread does, so the goroutine, its grown stack
// and its wake channel outlive the proc: a worker whose proc finished parks on
// the engine's idle list and the next Spawn binds a fresh Proc to it. Only
// the Proc is new per spawn — ids, names, kill state and stale wake records
// are per proc, and a dead proc's records are skipped by p.dead, so nothing of
// the previous tenant leaks into the next.
type worker struct {
	wake chan struct{}
	// p and fn are the proc bound by Spawn and its body, consumed on the
	// next wake. nil p on a wake means the engine released the worker.
	p  *Proc
	fn func(p *Proc)
}

// Spawn creates a new simulated thread named name that will start executing
// fn at virtual time start (>= Now). fn runs in simulation context: it may
// call Advance, Park and the synchronization primitives in this package.
func (e *Engine) Spawn(name string, start Time, fn func(p *Proc)) *Proc {
	w, ok := e.idle.Get()
	if !ok {
		w = &worker{wake: make(chan struct{})}
		go e.work(w)
	}
	e.nextID++
	p := &Proc{
		eng:  e,
		id:   e.nextID,
		name: name,
		wake: w.wake,
		next: e.live,
	}
	if e.live != nil {
		e.live.prev = p
	}
	e.live = p
	w.p, w.fn = p, fn
	e.nlive++
	e.scheduleWake(start, p)
	return p
}

// work is a worker's goroutine: run the bound proc, go idle, keep driving the
// event loop (the finished proc still holds the token), repeat.
func (e *Engine) work(w *worker) {
	for {
		<-w.wake // first dispatch of the bound proc, or release
		if w.p == nil {
			e.park <- struct{}{} // released: tell releaseIdle we are gone
			return
		}
		r := driveSelf
		for r == driveSelf {
			r = e.runBound(w)
		}
		if r == driveDrained {
			e.park <- struct{}{}
		}
	}
}

// runBound runs the proc bound to w to its end, puts w on the idle list and
// makes the proc's final yield: dispatch the remaining events (the caller
// passes the token back to Run if the queue drained here). Being idle, w may
// be bound again by a Spawn made from an event it dispatches itself; that
// proc's wake record then comes back as driveSelf and the caller runs it
// directly.
func (e *Engine) runBound(w *worker) driveResult {
	p, fn := w.p, w.fn
	w.p, w.fn = nil, nil
	fn(p)
	p.dead = true
	if !p.daemon {
		e.nlive--
	}
	e.unlink(p)
	e.idle.Put(w)
	e.cur = nil
	return e.drive(w.wake)
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

// releaseIdle ends the idle workers' goroutines and waits for them. Run calls
// it on return, holding the token: between Run phases nothing can use the
// workers, and a finished simulation must not pin goroutines. A worker bound
// to a live proc is not on the idle list and stays parked.
func (e *Engine) releaseIdle() {
	n := e.idle.Len()
	for w, ok := e.idle.Get(); ok; w, ok = e.idle.Get() {
		close(w.wake)
	}
	for ; n > 0; n-- {
		<-e.park
	}
}

// Go spawns fn at the current virtual time. It is the common case of Spawn.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.Spawn(name, e.now, fn)
}

// MarkDaemon excludes p from run-completion and deadlock accounting. Use it
// for service procs (RPC dispatchers, monitors) that park forever by design:
// a simulation whose only remaining procs are daemons terminates normally.
func (p *Proc) MarkDaemon() {
	if !p.daemon && !p.dead {
		p.daemon = true
		p.eng.nlive--
	}
}

// Daemon reports whether p has been marked as a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// ID returns the proc's unique id (assigned in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// yield gives up the simulation token and blocks until woken. The yielding
// goroutine itself drives the event loop forward (see Engine.drive) before
// parking, so waking the next proc costs one goroutine switch instead of a
// bounce through a scheduler goroutine — and resuming this same proc (an
// uncontended Advance) costs none at all.
func (p *Proc) yield() {
	e := p.eng
	e.cur = nil
	switch e.drive(p.wake) {
	case driveSelf:
		// Our own wake record was the next event: keep the token and
		// keep running.
	case driveHanded:
		<-p.wake
	case driveDrained:
		// Queue drained with us holding the token: hand it back to Run,
		// then wait (a later Run phase may unpark us).
		e.park <- struct{}{}
		<-p.wake
	}
}

// Advance consumes d of virtual time: the proc is suspended and resumes once
// the clock reaches Now+d. Negative durations are treated as zero.
func (p *Proc) Advance(d Duration) {
	p.checkRunning("Advance")
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.scheduleWake(e.now.Add(d), p)
	p.yield()
}

// Yield gives other same-time events a chance to run before p continues.
func (p *Proc) Yield() { p.Advance(0) }

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
// are skipped by the dispatcher, and the synchronization primitives skip dead
// procs when granting mutexes, semaphore units, signals or messages, so
// killing a parked proc cannot strand a resource on it. Kill must be called
// from engine context or another proc — a proc cannot kill itself (it would
// still hold the simulation token).
//
// The killed proc's worker goroutine stays parked on its wake channel for the
// rest of the process and is never reused — a deliberate leak of one small
// stack per kill. Forcing an
// exit (runtime.Goexit after a final wake) would run the proc's deferred
// calls concurrently with the simulation, without the token, which is far
// worse than the bounded memory cost of a fault experiment's kills.
func (p *Proc) Kill() {
	if p.dead {
		return
	}
	if p.eng.cur == p {
		panic(fmt.Sprintf("sim: proc %q killing itself", p.name))
	}
	p.dead = true
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

// checkRunning panics if p is not the proc currently holding the token.
// Blocking operations from outside simulation context would hang the kernel,
// so this fails fast instead.
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
