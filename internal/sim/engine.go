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
// deterministic. Neither key is stored in the event: its time is its ring's
// (the clock's, for the now-ring), and its seq is its place in the ring.
// Events are value-typed and live inline in the engine's queue; scheduling
// one never allocates. The discriminant is which fields are set:
//
//   - gen != 0: with a proc, a deadline record — proc's gen-th timed wait, on
//     the wait queue in payload, has run out (see Proc.armDeadline); inert if
//     that wait is already over. A ch beside the proc is the channel of an
//     idle wait (see Chan.RecvIdle). With a ch alone, a drain record — what
//     is queued on ch goes to its sink (see Chan.SetSink); inert if the sink
//     was cleared meanwhile.
//   - proc != nil: with a ch, a re-arm record — proc's idle wait on ch timed
//     out: resume the proc if a message came meanwhile, else arm the next
//     deadline without a resume (see Proc.rearm). Without, a wake record —
//     resume that proc. This is the dominant kind (Advance, Unpark, Spawn,
//     every synchronization wakeup).
//   - ch != nil: a push record — deliver payload into a Chan (simulated
//     message arrivals). payload is usually a pointer, which boxes for free.
//   - otherwise: a call record — payload holds a Caller, fired in engine
//     context (see ScheduleCall). A pointer Caller boxes for free, and so
//     does Schedule's func() behind its adapter, so the caller's func
//     literal is the only allocation a closure event makes.
type event struct {
	proc    *Proc
	ch      *Chan
	payload interface{}
	gen     uint64
}

// ring is a FIFO of events sharing one fire time. seq increases monotonically
// across pushes, so arrival order within a ring IS (time, seq) order —
// dequeuing the ring head is exact, with no per-event sifting. The rings of
// the heap's runs are pooled on a freelist and recycle their buffers, so a
// steady-state simulation allocates nothing to queue events.
type ring = fifo[event]

// run is one entry of the future-event heap: the events pushed for time t
// between the push that opened the run (numbered seq) and the next push for a
// different future time. One time may own several runs; an older one is never
// pushed to again, so ordering runs by (t, seq) orders their events.
type run struct {
	t   Time
	seq uint64
	q   *ring
}

func (r run) before(o run) bool { return r.t < o.t || r.t == o.t && r.seq < o.seq }

// maxPooledRing is the largest ring, in events, the queue keeps from one Run
// phase to the next (see releaseIdle): a burst-sized ring — every server proc
// of a machine starts at t=0 — would otherwise stay pinned for the engine's
// life. Within a phase rings only grow, so a simulation that bursts in steady
// state (256 procs in lock step) still queues without allocating.
const maxPooledRing = 64

// QueueStats counts the kernel's traffic by shape since the engine was created:
// where pushes went, how deadline records ended, how long the heap got, what
// the loop did with what it popped — resume a proc, consume a self-wake,
// re-arm an idle wait, drain a sink, fire a call record. Plain increments,
// kept unconditionally.
type QueueStats struct {
	AtNow         uint64 `json:"at_now"`         // pushes for the current instant (now-ring)
	NewRun        uint64 `json:"new_run"`        // future pushes that opened a run (a heap insert)
	Joined        uint64 `json:"joined"`         // future pushes that joined the last run (a ring append)
	DeadlineLive  uint64 `json:"deadline_live"`  // deadline records that fired into their wait
	DeadlineInert uint64 `json:"deadline_inert"` // deadline records whose wait was already over
	PeakHeap      int    `json:"peak_heap"`      // most runs in the heap at once
	Resumes       uint64 `json:"resumes"`        // coroutine resumes by the event loop (two switches each)
	Steps         uint64 `json:"steps"`          // step proc bodies run (no switch; see SpawnStep)
	SelfWakes     uint64 `json:"self_wakes"`     // wake records a yielding proc consumed itself (no switch)
	Rearms        uint64 `json:"rearms"`         // idle waits re-armed by their re-arm record (no resume)
	Drains        uint64 `json:"drains"`         // drain records that handed a burst to a sink
	Calls         uint64 `json:"calls"`          // call records fired (ScheduleCall and Schedule)
}

// Engine is a sequential discrete-event simulation kernel. It owns the
// virtual clock and the event queue, and multiplexes any number of Procs
// (simulated threads) one at a time.
//
// The event queue pays per event only what (time, seq) order needs. About
// half of all pushes are for the current instant (Unpark, zero-latency
// hand-offs): they append to the now-ring and never see the heap (head has
// the order argument). Future events sit in a 4-ary min-heap of runs (see
// run) compared without a pointer chase; nearly all have a time of their own
// and cost one sift, while a lock-step burst — many pushes in a row for one
// time — joins the run opened by the first and costs a ring append each. No
// per-event heap object, no hashing, no interface boxing, no container/heap
// indirect calls, and pop order is bit-for-bit that of a flat heap keyed by
// (time, seq).
//
// The zero value is not usable; create engines with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	nowRing ring                 // events at Now, pushed once the clock was there
	heap    []run                // min-heap by (t, seq) of events pushed for a later time
	nqueued int                  // events in the now-ring and all runs
	last    run                  // the most recently pushed-to run; q nil once it is drained
	free    freelist.List[*ring] // freelist of runs' rings
	qs      QueueStats

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
	rngSrc *lazySource // the seeded source under rng

	stopped bool

	// sh is non-nil when this engine is one shard of a multi-shard
	// ShardedEngine (see shard.go); it carries the shard's horizon bound
	// and the cross-shard pending heap. A standalone engine (and the
	// single shard of a one-shard ShardedEngine) has sh == nil and takes
	// the legacy code paths bit-for-bit.
	sh *shardCtl

	// horizon bounds the times records may be queued for: maxTime, unless
	// Bound lowered it.
	horizon Time
}

// NewEngine creates an engine whose random source is seeded with seed, so
// that identical seeds replay identical simulations.
func NewEngine(seed int64) *Engine {
	e := &Engine{rngSrc: &lazySource{seed: seed}, horizon: maxTime}
	e.rng = rand.New(e.rngSrc)
	return e
}

// NewRand returns a random stream bit-identical to
// rand.New(rand.NewSource(seed)) whose source is seeded by its first draw,
// as the engine's is.
func NewRand(seed int64) *rand.Rand { return rand.New(&lazySource{seed: seed}) }

// lazySource is a seeded random source, seeded by its first draw: most
// engines (and fault layers) never draw, and a seeded source is 5 KB that a
// parked system would pin.
//
// It implements BOTH Int63 and Uint64: rand.New special-cases Source64, and
// the wrapped runtime source is one, so implementing only Int63 would change
// which underlying method rand.Rand calls and shift the stream relative to
// rand.New(rand.NewSource(seed)).
type lazySource struct {
	seed int64
	src  rand.Source64
}

// get returns the source, seeding it on first use.
func (l *lazySource) get() rand.Source64 {
	if l.src == nil {
		l.src = rand.NewSource(l.seed).(rand.Source64)
	}
	return l.src
}

func (l *lazySource) Int63() int64 { return l.get().Int63() }

func (l *lazySource) Uint64() uint64 { return l.get().Uint64() }

func (l *lazySource) Seed(seed int64) { *l = lazySource{seed: seed} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. It must only be
// used from simulation context (engine callbacks or running procs).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// QueueStats returns the event queue's traffic counters.
func (e *Engine) QueueStats() QueueStats { return e.qs }

// push queues ev to fire at time t (clamped to >= Now): on the now-ring, on
// the last run if that is for t, else on a new run of its own.
func (e *Engine) push(t Time, ev event) {
	e.seq++
	e.nqueued++
	if t <= e.now {
		e.qs.AtNow++
		e.nowRing.push(ev)
		return
	}
	if e.last.q != nil && e.last.t == t {
		e.qs.Joined++
	} else {
		if t > e.horizon {
			e.stopped = true
		}
		q, ok := e.free.Get()
		if !ok {
			q = new(ring)
		}
		e.last = run{t, e.seq, q}
		e.qs.NewRun++
		e.heapPush(e.last)
	}
	e.last.q.push(ev)
}

// head returns the ring whose head is the next event in (time, seq) order and
// that event's time. Every event in the heap was pushed before the clock
// reached its time and so precedes, in seq, everything in the now-ring: the
// root's ring comes first while its time is Now, then the now-ring, and only
// with that empty the root again, for which the clock must advance. With
// nothing queued head returns nil and maxTime.
func (e *Engine) head() (*ring, Time) {
	switch {
	case len(e.heap) > 0 && (e.heap[0].t == e.now || e.nowRing.len() == 0):
		return e.heap[0].q, e.heap[0].t
	case e.nowRing.len() > 0:
		return &e.nowRing, e.now
	}
	return nil, maxTime
}

// pop removes and returns the globally minimum event by (time, seq),
// advancing the clock to its time. The queue must not be empty.
func (e *Engine) pop() event {
	q, t := e.head()
	e.now = t
	e.nevents++
	e.nqueued--
	ev := q.pop()
	if q.len() == 0 && q != &e.nowRing {
		e.heapPopRoot()
		if e.last.q == q {
			e.last.q = nil
		}
		e.free.Put(q)
	}
	return ev
}

// heapPush inserts r into the 4-ary min-heap of runs (sift-up).
func (e *Engine) heapPush(r run) {
	e.heap = append(e.heap, r)
	q := e.heap
	i := len(q) - 1
	if i >= e.qs.PeakHeap {
		e.qs.PeakHeap = i + 1
	}
	for i > 0 {
		p := (i - 1) >> 2
		if !r.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = r
}

// heapPopRoot removes the minimum run (sift-down with a hole).
func (e *Engine) heapPopRoot() {
	q := e.heap
	n := len(q) - 1
	last := q[n]
	q[n] = run{}
	e.heap = q[:n]
	if n == 0 {
		return
	}
	q = e.heap
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
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
}

// Caller is a typed callback record: Fire runs in engine context when the
// record's event comes up, and must not block. A pointer-shaped Caller (a
// pooled request, say) is scheduled without allocating.
type Caller interface{ Fire() }

// callFunc adapts a plain function to Caller, so closure events are call
// records too. A func value is pointer-shaped: the conversion allocates nothing.
type callFunc func()

func (f callFunc) Fire() { f() }

// ScheduleCall fires c at time t (>= Now), in engine context.
func (e *Engine) ScheduleCall(t Time, c Caller) {
	e.push(t, event{payload: c})
}

// Schedule runs fn at time t (>= Now). fn executes in engine context and
// must not block; to run simulated-thread code use Spawn or Unpark. This is
// the general closure path; the kernel's own hot paths use the typed wake,
// push and call records instead.
func (e *Engine) Schedule(t Time, fn func()) {
	e.ScheduleCall(t, callFunc(fn))
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
// order, dispatches call and push events inline, and for a wake event
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
	if e.stopped && e.horizon != maxTime {
		return fmt.Errorf("sim: stopped at %v: the run queued a record past its bound %v", e.now, e.horizon)
	}
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
// shardCtl.nextEvent) or Stop is called. Every event but one that resumes a
// proc fires inline with e.cur == nil (engine context, see fire). A resume
// switches to the proc's coroutine and returns here when the proc yields:
// two coroutine switches per wake, with no run queue and no second thread
// woken, which is cheaper than the one channel rendezvous a direct
// proc-to-proc hand-off would cost.
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
		} else {
			return
		}
		if p := ev.resumes(); p != nil {
			e.qs.Resumes++
			e.cur = p
			p.w.resume()
			e.cur = nil
		} else {
			e.fire(&ev)
		}
	}
}

// resumes returns the proc that firing ev resumes: a live thread's wake
// record, or the re-arm record of a live thread whose channel got a message.
// For any other record, a step proc's wake among them, it returns nil.
func (ev *event) resumes() *Proc {
	p := ev.proc
	if p == nil || ev.gen != 0 || p.dead || p.w == nil || ev.ch != nil && ev.ch.q.len() == 0 {
		return nil
	}
	return p
}

// fire dispatches ev, a record that resumes no proc, in engine context.
func (e *Engine) fire(ev *event) {
	switch {
	case ev.proc != nil && ev.gen != 0:
		ev.proc.fireDeadline(ev.gen, ev.payload.(*procQueue), ev.ch)
	case ev.proc != nil:
		switch p := ev.proc; {
		case p.dead:
		case ev.ch != nil:
			p.rearm(ev.ch)
		default: // a step proc's wake
			e.qs.Steps++
			p.reason = ""
			p.body.Run(p)
		}
	case ev.gen != 0:
		ev.ch.drain()
	case ev.ch != nil:
		ev.ch.Push(ev.payload)
	default:
		e.qs.Calls++
		ev.payload.(Caller).Fire()
	}
}

// fireUntilWake runs the event loop on the stack of p, which is about to
// yield, for as long as that saves a switch: it fires the records at the
// queue's head that resume no proc, exactly as drive would, and stops at the
// first that resumes one. It reports true, having consumed the record, when
// that is p's own wake: p keeps running. It reports false, and p must switch
// out, at another proc's resume, on Stop, on an empty queue, or when a fired
// record killed p, which is then never resumed. Neither p's deadline records
// nor a re-arm record naming p are its wake.
//
// A shard leaves every record to drive, whose merge with the remote events
// and horizon it would otherwise have to repeat, and only takes its own wake
// from the queue's head (see popSelfWake).
func (e *Engine) fireUntilWake(p *Proc) bool {
	if e.sh != nil {
		return e.popSelfWake(p)
	}
	for {
		q, _ := e.head()
		if e.stopped || q == nil {
			return false
		}
		if ev := q.peek(); ev.proc == p && ev.gen == 0 && ev.ch == nil {
			e.pop()
			e.qs.SelfWakes++
			return true
		} else if ev.resumes() != nil || !e.fireNext(p) {
			return false
		}
	}
}

// fireNext pops the next record, which resumes no proc, fires it in engine
// context on the stack of the yielding p, and reports whether p survived it.
// It is out of fireUntilWake so that the common yield, which fires nothing,
// keeps popSelfWake's small frame: the event copies live here.
func (e *Engine) fireNext(p *Proc) bool {
	ev := e.pop()
	e.cur = nil
	e.fire(&ev)
	e.cur = p
	return !p.dead
}

// popSelfWake consumes the next event if it is p's own wake record (not a
// deadline or re-arm record, which also name their proc), exactly as drive
// would have popped it and resumed p, and reports whether it did. It is the
// shards' fireUntilWake.
func (e *Engine) popSelfWake(p *Proc) bool {
	q, t := e.head()
	if e.stopped || q == nil {
		return false
	}
	if ev := q.peek(); ev.proc != p || ev.gen != 0 || ev.ch != nil {
		return false
	}
	if sh := e.sh; sh != nil && (t >= sh.limit || len(sh.pending) > 0 && sh.pending[0].t < t) {
		return false
	}
	e.pop()
	e.qs.SelfWakes++
	return true
}

// Stop aborts the simulation: Run returns after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Bound stops the run as soon as a record is queued for a time past t, and
// Run then returns an error while the bound is on; lift removes the bound. A
// replay that must reach a recorded instant and no further runs under it, so
// one that leaves the recorded run stops instead of running on.
func (e *Engine) Bound(t Time) (lift func()) {
	e.horizon = t
	return func() { e.horizon = maxTime }
}

// Live reports the number of procs that have been spawned and not finished.
func (e *Engine) Live() int { return e.nlive }

// Events reports the number of events fired since the engine was created,
// the simulator's unit of kernel work (wall-clock benchmarks divide by it).
func (e *Engine) Events() uint64 { return e.nevents }
