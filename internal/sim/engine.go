package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"dsmpm2/internal/freelist"
)

// event is one scheduled occurrence, ordered by (time, seq): events with
// equal times fire in scheduling order, which is what makes the simulation
// deterministic. Neither key is stored in the event: its time is its ring's
// (the clock's, for the now-ring), and its seq is its place in the ring.
// Events are value-typed and live inline in the engine's queue; scheduling
// one never allocates. The discriminant is which field is set:
//
//   - proc != nil: a wake record — resume that proc. This is the dominant
//     kind (Advance, Unpark, Spawn, every synchronization wakeup).
//   - ch != nil: a push record — deliver payload into a Chan (simulated
//     message arrivals). payload is usually a pointer, which boxes for free.
//   - otherwise: a call record — payload holds a Caller, fired in engine
//     context (see ScheduleCall). A pointer Caller boxes for free: a timed
//     wait's deadline (see Proc.armDeadline), a sink's drain (see
//     Chan.SetSink), a fault cursor. So does Schedule's func() behind its
//     adapter, so the caller's func literal is the only allocation a
//     closure event makes.
type event struct {
	proc    *Proc
	ch      *Chan
	payload interface{}
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
// drain a sink, fire a call record. Plain increments, kept unconditionally.
type QueueStats struct {
	AtNow         uint64 `json:"at_now"`         // pushes for the current instant (now-ring)
	NewRun        uint64 `json:"new_run"`        // future pushes that opened a run (a heap insert)
	Joined        uint64 `json:"joined"`         // future pushes that joined the last run (a ring append)
	DeadlineLive  uint64 `json:"deadline_live"`  // deadline records that fired into their wait
	DeadlineInert uint64 `json:"deadline_inert"` // deadline records whose wait was already over
	PeakHeap      int    `json:"peak_heap"`      // most runs in the heap at once
	Resumes       uint64 `json:"resumes"`        // procs resumed by the event loop (one switch each, none for a rebound worker)
	Steps         uint64 `json:"steps"`          // step proc bodies run (no switch; see SpawnStep)
	SelfWakes     uint64 `json:"self_wakes"`     // wake records a yielding proc consumed itself (no switch)
	Drains        uint64 `json:"drains"`         // drain records that handed a burst to a sink
	Calls         uint64 `json:"calls"`          // call records fired: deadlines, drains, ScheduleCall and Schedule
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

	// deadlines pools the call records of timed waits (see Proc.armDeadline).
	deadlines freelist.List[*deadline]

	cur     *Proc // proc the event loop is currently running
	nextID  int
	nlive   int    // procs spawned and not yet finished
	nevents uint64 // events fired since creation

	// home is the slot that the home goroutine — Run's, or a shard
	// controller's — is parked in while another goroutine holds the turn
	// (see pass), and homed counts the times it got the turn back. A worker
	// whose stack panicked or called runtime.Goexit records that in failed
	// and panicked and hands the turn home, which raises it again (see work).
	home     *worker
	homed    uint64
	failed   bool
	panicked interface{}

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

	// horizon bounds the times events may fire at: maxTime, unless Bound
	// lowered it.
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

// pop removes and returns the globally minimum event by (time, seq), the
// head of q, advancing the clock to its time t; q and t are what head
// returned, and q must not be nil.
func (e *Engine) pop(q *ring, t Time) event {
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

// Run drives the simulation until the event queue is empty or Stop pauses
// it. It returns nil if every spawned proc has finished or the run was
// paused, an error if the next event lies past Bound's instant, and a
// *DeadlockError if procs remain blocked with no pending events. The next
// Run continues a paused run where it stopped. Run must be called from the
// goroutine that owns the engine (typically the test or main goroutine), and
// only once at a time.
//
// The event loop runs on whichever goroutine holds the turn: Run's, and the
// goroutine of each proc it resumes, which runs the loop itself once the proc
// blocks or finishes and passes the turn straight to the next proc (see
// drive). A panic inside a proc, or inside a record fired on its stack,
// unwinds through Run into the caller with its value, and a runtime.Goexit
// inside one (a t.Fatal) ends the calling goroutine. Either leaves the kernel
// mid-event: an engine whose proc panicked is not to be run again.
func (e *Engine) Run() error {
	if e.sh != nil {
		panic("sim: Run called on one shard of a sharded engine; use ShardedEngine.Run")
	}
	e.stopped = false
	e.drive()
	e.releaseIdle()
	switch {
	case e.stopped:
	case e.nqueued > 0:
		return fmt.Errorf("sim: stopped at %v: the run would fire an event past its bound %v", e.now, e.horizon)
	case e.nlive > 0:
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

// drive is the home goroutine's event loop, Run's or a shard controller's: it
// hands the turn to each proc the loop comes to (see turn and pass) and
// returns when the run stops — on Stop, on an empty queue, at a head past the
// bound. A proc's goroutine runs the same loop when the proc yields (see
// Proc.yield), and a worker's when its proc finished (see work), and passes
// the turn straight to the next proc: home gets it back only when the run
// stops, when a fired record killed the proc yielding, or on a failure.
func (e *Engine) drive() {
	for q := e.turn(nil, nil); q != nil; q = e.turn(nil, nil) {
		e.pass(nil, q)
	}
}

// turn is the event loop, run by whichever goroutine holds the turn: that of
// worker w, whose proc p is yielding (nil once it finished), or with w nil the
// home goroutine. It fires records in (time, seq) order, in engine context
// (see fireHead), up to the first that resumes a proc, and returns that proc
// with its record consumed; when it is p, the proc runs on with no switch (a
// self-wake). It returns nil on Stop, on an empty queue, at a head past the
// bound, and once a fired record killed p. With every non-daemon proc
// finished it takes a parking record in passing, without moving the clock. A
// shard keeps its own rule (see shardTurn).
func (e *Engine) turn(w *worker, p *Proc) *Proc {
	if e.sh != nil {
		return e.shardTurn(w, p)
	}
	for !e.stopped {
		q, t := e.head()
		switch {
		case q == nil:
			return nil
		case e.nlive == 0 && parking(q):
			t = e.now
		case t > e.horizon:
			return nil
		case q.peek().proc == p && p != nil:
			e.pop(q, t)
			e.qs.SelfWakes++
			return p
		default:
			if r := q.peek().resumes(); r != nil {
				e.pop(q, t)
				return r
			}
		}
		if !e.fireHead(p, q, t) {
			return nil
		}
	}
	return nil
}

// fireHead pops the record at q's head, which resumes no proc, as due at t,
// fires it in engine context on the stack of p (nil: no proc yielding) and
// reports whether p survived it. It is out of turn so that a yield that fires
// nothing keeps turn's small frame: the event copy lives here.
func (e *Engine) fireHead(p *Proc, q *ring, t Time) bool {
	ev := e.pop(q, t)
	e.cur = nil
	e.fire(&ev)
	e.cur = p
	return p == nil || !p.dead
}

// pass hands the turn from the goroutine of worker w (nil: home) to proc q,
// which turn returned, or home when q is nil, and returns when w's goroutine
// is resumed. A proc spawned onto w since w's proc finished runs on with no
// switch. A worker's goroutine woken instead because the coroutine of its slot
// ended (see releaseIdle) passes the turn home. Home raises again what a
// failed worker recorded (see work).
func (e *Engine) pass(w *worker, q *Proc) {
	s := e.home
	if q == nil {
		e.cur = nil
	} else {
		e.qs.Resumes++
		e.cur = q
		if q.w == w {
			return
		}
		s = q.w.slot
	}
	if w != nil {
		for !s.swap(&w.slot) {
			s = e.home
		}
		return
	}
	s.swap(&e.home)
	e.homed++
	if e.failed {
		if v := e.panicked; v != nil {
			panic(v)
		}
		runtime.Goexit()
	}
}

// parking reports whether q's head is a record that does nothing once every
// proc finished, which the drain takes in passing: a fault event (see
// FaultCursor.Fire), or the deadline of a timed wait, whose proc is then
// dead (see deadline.Fire) unless it is a daemon.
func parking(q *ring) bool {
	switch r := q.peek().payload.(type) {
	case *FaultCursor:
		return true
	case *deadline:
		return !r.p.daemon
	}
	return false
}

// resumes returns the proc that firing ev resumes: a live thread's wake
// record. For any other record, a step proc's wake among them, it returns nil.
func (ev *event) resumes() *Proc {
	p := ev.proc
	if p == nil || p.dead || p.w == nil {
		return nil
	}
	return p
}

// fire dispatches ev, a record that resumes no proc, in engine context.
func (e *Engine) fire(ev *event) {
	switch p := ev.proc; {
	case p != nil:
		if !p.dead { // a step proc's wake
			e.qs.Steps++
			p.reason = ""
			p.body.Run(p)
		}
	case ev.ch != nil:
		ev.ch.Push(ev.payload)
	default:
		e.qs.Calls++
		ev.payload.(Caller).Fire()
	}
}

// Stop pauses the simulation: Run returns after the current event completes,
// and the next Run continues from the event after it.
func (e *Engine) Stop() { e.stopped = true }

// Bound stops the run before it fires an event past t, and Run then returns
// an error while the bound is on; lift removes the bound. A replay that must
// reach a recorded instant and no further runs under it, so one that leaves
// the recorded run stops instead of running on.
func (e *Engine) Bound(t Time) (lift func()) {
	e.horizon = t
	return func() { e.horizon = maxTime }
}

// Live reports the number of procs that have been spawned and not finished.
func (e *Engine) Live() int { return e.nlive }

// Events reports the number of events fired since the engine was created,
// the simulator's unit of kernel work (wall-clock benchmarks divide by it).
func (e *Engine) Events() uint64 { return e.nevents }
