package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dsmpm2/internal/freelist"
)

// event is one scheduled occurrence, ordered by (time, seq): events with
// equal times fire in scheduling order, which is what makes the simulation
// deterministic. Neither key is stored in the event: its time is its
// bucket's, and its seq is its place in the bucket's ring. Events are
// value-typed and live inline in the engine's queue; the discriminant is
// which reference field is set:
//
//   - proc != nil: a wake record — resume that proc. This is the dominant
//     kind (Advance, Unpark, Spawn, every synchronization wakeup) and
//     scheduling one performs no heap allocation.
//   - ch != nil: a push record — deliver payload into a Chan (simulated
//     message arrivals). Also allocation-free to schedule; payload is
//     usually a pointer, which boxes without allocating.
//   - otherwise: a general closure event (rare: drivers, tests, custom
//     hooks). The closure capture is the only allocation, paid by the
//     caller when it builds the func literal.
type event struct {
	proc    *Proc
	ch      *Chan
	payload interface{}
	fn      func()
}

// bucket is a FIFO ring of events sharing one fire time. seq increases
// monotonically across Schedule calls, so arrival order within a bucket IS
// (time, seq) order — dequeuing the ring head is exact, with no per-event
// sifting. Buckets are pooled on a freelist and their rings recycle, so a
// steady-state simulation allocates nothing to queue events.
type bucket struct {
	t Time
	fifo[event]
}

// maxPooledRing is the largest ring, in events, a pooled bucket keeps from
// one Run phase to the next (see releaseIdle): a burst-sized ring — every
// dispatcher of a machine starts at t=0 — would otherwise stay pinned for the
// engine's life. Within a phase rings only grow, so a simulation that bursts
// in steady state (256 procs in lock step) still queues without allocating.
const maxPooledRing = 64

// freeT marks a bucket as sitting on the freelist: no live event time can
// match it (times are clamped to >= Now >= 0), so a stale cache hit on a
// freed bucket is impossible.
const freeT = Time(-1)

// Engine is a sequential discrete-event simulation kernel. It owns the
// virtual clock and the event queue, and multiplexes any number of Procs
// (simulated threads) one at a time.
//
// The event queue is a two-level calendar: a 4-ary min-heap of time buckets
// (one per distinct fire time, ordered by time alone) over FIFO rings of
// value-typed events. Discrete-event workloads burst heavily at identical
// times — every control message costs the same latency, every compute slice
// the same quantum — so the common enqueue/dequeue hits the ring in O(1)
// and only a new distinct time pays a (pointer-sized) heap sift. No
// per-event heap object, no interface boxing, no container/heap indirect
// calls, and (time, seq) pop order is bit-for-bit that of a flat heap.
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   []*bucket              // min-heap by t; one bucket per distinct time
	times   map[Time]*bucket       // live buckets by fire time
	nqueued int                    // events across all buckets
	last    *bucket                // most recently pushed-to bucket (cache)
	free    freelist.List[*bucket] // bucket freelist

	cur     *Proc // proc the event loop is currently running
	nextID  int
	nlive   int    // procs spawned and not yet finished
	nevents uint64 // events fired since creation

	// live heads the intrusive list of procs that have neither finished nor
	// been killed (daemons included); deadlock reports walk it. idle is the
	// LIFO of workers whose proc has finished (see worker). Both are touched
	// only by the event loop and the proc it is running, so neither needs a
	// lock.
	live *Proc
	idle freelist.List[*worker]

	rng    *rand.Rand
	rngSrc *countingSource // the seeded source under rng, counting draws for Capture

	stopped bool
	onIdle  func() bool // optional hook when queue drains with live procs

	// sh is non-nil when this engine is one shard of a multi-shard
	// ShardedEngine (see shard.go); it carries the shard's horizon bound
	// and the cross-shard pending heap. A standalone engine (and the
	// single shard of a one-shard ShardedEngine) has sh == nil and takes
	// the legacy code paths bit-for-bit.
	sh *shardCtl
}

// NewEngine creates an engine whose random source is seeded with seed, so
// that identical seeds replay identical simulations.
func NewEngine(seed int64) *Engine {
	e := &Engine{
		times:  make(map[Time]*bucket),
		rngSrc: newCountingSource(seed),
	}
	e.rng = rand.New(e.rngSrc)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (engine callbacks or running procs).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// push appends ev, firing at time t (clamped to >= Now), to that time's
// bucket, creating (and heap-inserting) the bucket on first use. The
// single-entry bucket cache makes the dominant case — many events scheduled
// for the same time — a pure ring append.
func (e *Engine) push(t Time, ev event) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.nqueued++
	b := e.last
	if b == nil || b.t != t {
		b = e.times[t]
		if b == nil {
			var ok bool
			if b, ok = e.free.Get(); !ok {
				b = new(bucket)
			}
			b.t = t
			e.times[t] = b
			e.heapPush(b)
		}
		e.last = b
	}
	b.push(ev)
}

// pop removes and returns the globally minimum event by (time, seq),
// advancing the clock to its time.
func (e *Engine) pop() event {
	b := e.queue[0]
	ev := b.pop()
	e.now = b.t
	e.nevents++
	e.nqueued--
	if b.len() == 0 {
		e.heapPopRoot()
		delete(e.times, b.t)
		b.t = freeT
		if e.last == b {
			e.last = nil
		}
		e.free.Put(b)
	}
	return ev
}

// heapPush inserts b into the 4-ary min-heap of buckets (sift-up).
func (e *Engine) heapPush(b *bucket) {
	e.queue = append(e.queue, b)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if q[p].t <= b.t {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = b
}

// heapPopRoot removes the minimum bucket (sift-down with a hole).
func (e *Engine) heapPopRoot() {
	q := e.queue
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	e.queue = q[:n]
	if n == 0 {
		return
	}
	q = e.queue
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if q[j].t < q[m].t {
				m = j
			}
		}
		if q[m].t >= last.t {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
}

// Schedule runs fn at time t (>= Now). fn executes in engine context and
// must not block; to run simulated-thread code use Spawn or Unpark. This is
// the general closure path; the kernel's own hot paths use the typed wake
// and push records instead.
func (e *Engine) Schedule(t Time, fn func()) {
	e.push(t, event{fn: fn})
}

// scheduleWake schedules a typed wake record for p at time t (>= Now)
// without allocating.
func (e *Engine) scheduleWake(t Time, p *Proc) {
	e.push(t, event{proc: p})
}

// SchedulePush delivers payload into ch at time t (>= Now): the typed,
// allocation-free form of Schedule(t, func() { ch.Push(payload) }) that the
// network layer uses for every message arrival.
func (e *Engine) SchedulePush(t Time, ch *Chan, payload interface{}) {
	e.push(t, event{ch: ch, payload: payload})
}

// After runs fn d from now, in engine context.
func (e *Engine) After(d Duration, fn func()) { e.Schedule(e.now.Add(d), fn) }

// DeadlockError reports that the event queue drained while simulated threads
// were still blocked.
type DeadlockError struct {
	Now     Time
	Blocked []string // "name (reason)" for each blocked proc
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v: %d proc(s) blocked: %s",
		d.Now, len(d.Blocked), strings.Join(d.Blocked, "; "))
}

// Run drives the simulation until the event queue is empty. It returns nil
// if every spawned proc has finished, or a *DeadlockError if procs remain
// blocked with no pending events. Run must be called from the goroutine that
// owns the engine (typically the test or main goroutine), and only once at a
// time.
//
// The event loop runs on the calling goroutine: it pops events in (time, seq)
// order, dispatches closure and push events inline, and for a wake event
// resumes the woken proc's coroutine, which runs until the proc blocks or
// finishes and then switches straight back (see drive). Nothing else is ever
// runnable, so a panic inside a proc unwinds through Run into the caller with
// the proc's value, and a runtime.Goexit inside one (a t.Fatal) ends the
// calling goroutine. Either leaves the kernel mid-event: an engine whose proc
// panicked is not to be run again.
func (e *Engine) Run() error {
	if e.sh != nil {
		panic("sim: Run called on one shard of a sharded engine; use ShardedEngine.Run")
	}
	e.drive()
	e.releaseIdle()
	if e.nlive > 0 && !e.stopped {
		blocked := e.blocked("")
		sort.Strings(blocked)
		return &DeadlockError{Now: e.now, Blocked: blocked}
	}
	return nil
}

// blocked lists the live non-daemon procs as prefix + "name (reason)" for a
// deadlock report. With the queue drained every such proc is inside Park: a
// proc that was merely advancing or not yet started would still have its wake
// record queued.
func (e *Engine) blocked(prefix string) []string {
	var out []string
	for p := e.live; p != nil; p = p.next {
		if p.daemon {
			continue
		}
		reason := p.reason
		if p.waitFor != nil {
			reason += " " + p.waitFor.name
		}
		out = append(out, fmt.Sprintf("%s%s (%s)", prefix, p.name, reason))
	}
	return out
}

// drive is the event loop: pop and dispatch events until the queue drains (on
// a shard: until the horizon-bounded merge is exhausted, see
// shardCtl.nextEvent) or Stop is called. Closure and push events run inline
// with e.cur == nil (engine context). A wake event resumes the proc's
// coroutine and returns here when the proc yields: two coroutine switches per
// wake, with no run queue and no second thread woken, which is cheaper than
// the one channel rendezvous a direct proc-to-proc hand-off would cost.
func (e *Engine) drive() {
	for !e.stopped {
		var ev event
		if sh := e.sh; sh != nil {
			var ok bool
			if ev, ok = sh.nextEvent(e); !ok {
				return
			}
		} else if e.nqueued > 0 {
			ev = e.pop()
		} else if e.nlive > 0 && e.onIdle != nil && e.onIdle() && e.nqueued > 0 {
			// Queue drained with procs still live: the idle hook gets one
			// chance per drain to feed external work in, and did.
			continue
		} else {
			return
		}
		switch {
		case ev.proc != nil:
			if p := ev.proc; !p.dead {
				e.cur = p
				p.w.resume()
				e.cur = nil
			}
		case ev.ch != nil:
			ev.ch.Push(ev.payload)
		default:
			ev.fn()
		}
	}
}

// popSelfWake consumes the next event if it is p's own wake record, exactly
// as drive would have popped it and resumed p, and reports whether it did.
func (e *Engine) popSelfWake(p *Proc) bool {
	if e.stopped || e.nqueued == 0 {
		return false
	}
	b := e.queue[0]
	if b.peek().proc != p {
		return false
	}
	if sh := e.sh; sh != nil && (b.t >= sh.limit || len(sh.pending) > 0 && sh.pending[0].t < b.t) {
		return false
	}
	e.pop()
	return true
}

// Stop aborts the simulation: Run returns after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// SetIdleHook installs fn, called whenever the queue drains while procs are
// still live. Returning true continues (fn must have scheduled new events);
// returning false stops the run. Used by drivers that feed external work in.
// Idle hooks are a single-loop concept and are not supported on the shards
// of a sharded engine (shard-local quiescence is a synchronization point,
// not the end of the run).
func (e *Engine) SetIdleHook(fn func() bool) {
	if e.sh != nil {
		panic("sim: idle hooks are not supported on sharded engines")
	}
	e.onIdle = fn
}

// Live reports the number of procs that have been spawned and not finished.
func (e *Engine) Live() int { return e.nlive }

// Events reports the number of events fired since the engine was created,
// the simulator's unit of kernel work (wall-clock benchmarks divide by it).
func (e *Engine) Events() uint64 { return e.nevents }

// Cur returns the proc currently running, or nil when in pure engine context.
func (e *Engine) Cur() *Proc { return e.cur }
