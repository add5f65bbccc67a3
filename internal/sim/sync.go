package sim

import "fmt"

// procQueue is a FIFO of parked procs; the shared ring (see fifo) recycles
// its buffer, so at steady state the wait queues of the synchronization
// primitives stop allocating.
type procQueue = fifo[*Proc]

// Mutex is a FIFO mutual-exclusion lock for simulated threads. Unlike
// sync.Mutex it is strictly fair: waiters are granted the lock in arrival
// order, which keeps simulations deterministic. The zero value is unlocked.
type Mutex struct {
	owner   *Proc
	waiters procQueue
}

// Lock acquires m, blocking the calling proc until it is available. Lock is
// handoff-style: an unlocking proc passes ownership directly to the oldest
// waiter.
func (m *Mutex) Lock(p *Proc) {
	if !m.LockStep(p) {
		p.Park("mutex lock")
	}
}

// LockStep is Lock for a step proc, and the one way to take a mutex without
// parking: it takes a free m (true) or queues p where Lock would park it
// (false), and Unlock's hand-off runs p's next step as the owner.
func (m *Mutex) LockStep(p *Proc) bool {
	if m.owner == nil {
		m.owner = p
		return true
	}
	if m.owner == p {
		panic(fmt.Sprintf("sim: proc %q locking mutex it already owns", p.name))
	}
	m.waiters.push(p)
	p.reason = "mutex lock"
	return false
}

// Unlock releases m. It panics if p does not own the mutex. Waiters killed
// while queued are skipped, so a fault cannot strand the lock on a dead proc.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic(fmt.Sprintf("sim: proc %q unlocking mutex owned by %v", p.name, ownerName(m.owner)))
	}
	for m.waiters.len() > 0 {
		next := m.waiters.pop()
		if next.dead {
			continue
		}
		m.owner = next
		next.Unpark()
		return
	}
	m.owner = nil
}

func ownerName(p *Proc) string {
	if p == nil {
		return "<nobody>"
	}
	return p.name
}

// Cond is a condition variable associated with a Mutex, with the usual
// Wait/Broadcast contract. Waiters are woken in FIFO order. Set L before first
// use; the zero value has no waiters, so a Cond can be embedded beside its
// Mutex.
type Cond struct {
	L       *Mutex
	waiters procQueue
}

// Wait atomically releases the lock and suspends the proc; on wakeup it
// re-acquires the lock before returning. As with sync.Cond, callers must
// re-check their predicate in a loop.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	c.L.Unlock(p)
	p.Park("cond wait")
	c.L.Lock(p)
}

// Broadcast wakes all live waiters.
func (c *Cond) Broadcast() {
	c.waiters.drain(func(w *Proc) {
		if !w.dead {
			w.Unpark()
		}
	})
}

// armDeadline starts a timed wait of p on q: a deadline record d from now
// that takes p off q and unparks it, clearing p.timed as the mark of a wait
// that timed out. The wait ends by clearing timed itself, which makes a record
// still in the calendar inert; until then it stays armed through any number of
// parks.
func (p *Proc) armDeadline(q *procQueue, d Duration) {
	p.timedGen++
	p.timed = true
	e := p.eng
	dl, ok := e.deadlines.Get()
	if !ok {
		dl = new(deadline)
	}
	*dl = deadline{p, p.timedGen, q}
	e.ScheduleCall(e.now.Add(d), dl)
}

// deadline is the call record of p's gen-th timed wait on q. Records are
// pooled on their engine's freelist, so a timed wait allocates nothing once
// the pool holds as many records as are ever queued at once.
type deadline struct {
	p   *Proc
	gen uint64
	q   *procQueue
}

// Fire is the deadline running out. p not being queued (a push or signal just
// took it off and its wake is on the way) leaves the wait to end on its own.
func (d *deadline) Fire() {
	p, gen, q := d.p, d.gen, d.q
	e := p.eng
	*d = deadline{}
	e.deadlines.Put(d)
	if gen != p.timedGen || !p.timed {
		e.qs.DeadlineInert++
		return
	}
	e.qs.DeadlineLive++
	if q.removeFunc(func(w *Proc) bool { return w == p }) {
		p.timed = false
		if !p.dead {
			p.Unpark()
		}
	}
}

// Resource is a single FIFO server: Use(p, d) occupies it for d of virtual
// time, queuing behind earlier users. It models a node's CPU: the DSM
// applications charge their compute phases against their node's Resource so
// that piling many threads onto one node slows them down, exactly the effect
// the paper's Figure 4 attributes to the thread-migration protocol. The zero
// value is free.
type Resource struct {
	held    bool
	waiters procQueue
	// busy accumulates total occupied time, for utilization reports.
	busy Duration
}

// Use occupies r for d of virtual time.
func (r *Resource) Use(p *Proc, d Duration) {
	if !r.AcquireStep(p) {
		p.Park("resource acquire")
	}
	p.Advance(d)
	r.Done(d)
}

// AcquireStep is Use for a step proc, which then Sleeps d and calls Done(d):
// it takes a free r (true) or queues p where Use would park it (false), and
// Done's hand-off runs p's next step holding r.
func (r *Resource) AcquireStep(p *Proc) bool {
	if !r.held {
		r.held = true
		return true
	}
	r.waiters.push(p)
	p.reason = "resource acquire"
	return false
}

// Done frees r after holding it for d, handing it directly to the oldest
// live waiter if any; dead waiters are discarded so a fault cannot leave r
// held by a killed proc.
func (r *Resource) Done(d Duration) {
	r.busy += d
	for r.waiters.len() > 0 {
		if w := r.waiters.pop(); !w.dead {
			w.Unpark()
			return
		}
	}
	r.held = false
}

// Busy reports the cumulative time r was occupied.
func (r *Resource) Busy() Duration { return r.busy }

// Chan is an unbounded FIFO message queue, the building block for simulated
// network endpoints: senders (or engine event callbacks, e.g. message-delivery
// events) push without blocking, and either receiver procs block until a
// message arrives or, on a channel bound with SetSink, the event loop hands
// each message to a callback. The queue is a recycling ring (see fifo), so a
// drained channel reuses its buffer instead of reallocating.
type Chan struct {
	q       fifo[interface{}]
	waiters procQueue
	// sink, when set, consumes the messages instead of receivers, called by
	// eng's event loop: a drain record is queued whenever messages are.
	sink func(v interface{})
	eng  *Engine
}

// SetSink binds c to fn: eng's event loop (the one pushes onto c run in) hands
// fn every message, in arrival order and in engine context, so fn must not
// block. A sink stands in for a receiver proc that never blocks between
// receives: the first push of a same-instant burst queues one drain record
// where that receiver's wake record would go, and the rest ride on it. It
// panics if procs are parked on c: they and fn would compete for messages.
func (c *Chan) SetSink(eng *Engine, fn func(v interface{})) {
	if c.waiters.len() > 0 {
		panic("sim: SetSink on a channel with parked receivers")
	}
	c.sink, c.eng = fn, eng
	if c.q.len() > 0 {
		eng.ScheduleCall(eng.now, (*drain)(c))
	}
}

// ClearSink unbinds c, as killing a receiver would: messages stay queued (for
// TryRecv) and a drain record still pending does nothing. A sink may unbind
// its own channel, to take what follows with TryRecv: the drain stops there.
func (c *Chan) ClearSink() { c.sink = nil }

// drain is a bound channel seen as its drain record, a call record: firing,
// what is queued goes to the sink, for as long as the channel stays bound.
type drain Chan

func (d *drain) Fire() {
	if c := (*Chan)(d); c.sink != nil {
		c.eng.qs.Drains++
		for c.sink != nil && c.q.len() > 0 {
			c.sink(c.q.pop())
		}
	}
}

// Push appends v and wakes one waiting live receiver (on a bound channel,
// queues the drain record if v is the first of its burst). Push may be called
// from any simulation context, including engine event callbacks.
func (c *Chan) Push(v interface{}) {
	c.q.push(v)
	if c.sink != nil {
		if c.q.len() == 1 {
			c.eng.ScheduleCall(c.eng.now, (*drain)(c))
		}
		return
	}
	for c.waiters.len() > 0 {
		if w := c.waiters.pop(); !w.dead {
			w.Unpark()
			return
		}
	}
}

// Recv removes and returns the oldest message, blocking while the queue is
// empty. Like RecvTimeout it panics on a bound channel (the message would be
// consumed twice, or never); TryRecv stays legal there.
func (c *Chan) Recv(p *Proc) interface{} {
	if c.sink != nil {
		panic("sim: Recv on a channel bound to a sink")
	}
	for c.q.len() == 0 {
		c.waiters.push(p)
		p.Park("chan recv")
	}
	return c.q.pop()
}

// RecvTimeout is Recv with a deadline: it returns (message, true) when one
// arrives within d of virtual time, or (nil, false) on timeout. The deadline
// record is retired (made inert) when the call returns, so a message arriving
// just before the deadline cannot leave behind a timer that later fires into
// a subsequent wait by the same proc. Safe for repeated per-request deadlines
// on shared channels.
func (c *Chan) RecvTimeout(p *Proc, d Duration) (interface{}, bool) {
	if c.sink != nil {
		panic("sim: RecvTimeout on a channel bound to a sink")
	}
	if c.q.len() > 0 {
		return c.q.pop(), true
	}
	p.armDeadline(&c.waiters, d)
	for c.q.len() == 0 && p.timed {
		// Again if woken by a Push whose message another receiver consumed:
		// the deadline stays armed across these re-parks and bounds the wait.
		c.waiters.push(p)
		p.Park("chan recv (timed)")
	}
	p.timed = false
	if c.q.len() == 0 {
		return nil, false
	}
	return c.q.pop(), true
}

// TryRecv removes and returns the oldest message without blocking. The
// second result reports whether a message was available.
func (c *Chan) TryRecv() (interface{}, bool) {
	if c.q.len() == 0 {
		return nil, false
	}
	return c.q.pop(), true
}

// Len reports the number of queued messages.
func (c *Chan) Len() int { return c.q.len() }
