package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Sharded execution: a ShardedEngine runs one calendar event loop per
// topology cluster on its own goroutine, synchronized conservatively in the
// Chandy–Misra/Bryant style. The design constraints, in order:
//
//  1. shards=1 is bit-identical to the legacy Engine — a one-shard
//     ShardedEngine holds a plain Engine with no shard controller attached,
//     so every existing golden replays unchanged;
//  2. for a fixed shard count N the schedule is deterministic run-to-run,
//     independent of how the host scheduler interleaves the shard
//     goroutines;
//  3. no cross-shard contention on the hot paths: each shard owns its
//     calendar, ring freelist, clock, PRNG and proc set, and only the
//     cross-shard mailbox and the synchronization plane are shared.
//
// # Synchronization protocol
//
// Every ordered shard pair (i, j) has a lookahead L[i][j] > 0: a message a
// proc of shard i sends at virtual time t arrives at shard j no earlier
// than t + L[i][j]. In the DSM stack the lookahead is the minimum
// cross-cluster link latency — the slow backbone of a Hierarchical topology
// is exactly the slack a conservative scheme needs.
//
// Each shard i posts a monotone lower bound lb[i]: a promise that every
// event it will ever send to shard j from now on arrives no earlier than
// lb[i] + L[i][j]. From the other shards' promises it derives its input
// horizon
//
//	H(i) = min over j != i of lb[j] + L[j][i]
//
// and may freely execute every event (local or already received) strictly
// below H(i). Between drives it re-posts lb[i] = min(next[i], H(i)), where
// next[i] is its earliest pending event: posting its own horizon when idle
// is the shared-memory equivalent of a CMB null message, and the posts
// ripple through the lb vector until someone's next event falls under their
// horizon.
//
// Null-message creep (horizons advancing in lookahead-sized steps toward a
// far-future event) is cut short by a quiescence grant: when every shard is
// blocked the mutex gives a consistent global snapshot, and the last shard
// to block jumps each lb to min(next[k], min over j != k of next[j] +
// D[j][k]), where D is the all-pairs shortest path over the lookahead
// matrix. At least the globally earliest shard becomes runnable, so the
// system never livelocks; if instead every queue is empty the run is
// complete and shards with live procs report a deadlock exactly like the
// legacy engine. A shard blocked only on a remote horizon is *not* a
// deadlock — it wakes as soon as its neighbours' bounds pass its next
// event.
//
// # Determinism
//
// Remote events never enter the receiving shard's calendar: they would pick
// up local sequence numbers that depend on *when* (in wall-clock terms)
// the mailbox was drained. They sit in a separate pending heap ordered by
// (time, source shard, per-source sequence) and are merged at pop time,
// ties at equal time resolved local-stream-first. Which events are
// *admissible* at a pop is horizon-independent: anything that arrives
// after a horizon was computed is, by the lookahead promise, at or above
// that horizon, so the merged pop order — and therefore every per-shard
// schedule — is a pure function of the simulation, not of host timing.
type ShardedEngine struct {
	shards []*Engine
	look   [][]Duration // direct lookahead, [src][dst]
	dist   [][]Duration // all-pairs min-path lookahead (quiescence grant)

	mu       sync.Mutex
	cond     *sync.Cond
	lb       []Time // per shard: posted send lower bound (monotone)
	next     []Time // per shard: earliest pending event, maxTime if none
	waiting  []bool // per shard: blocked on its horizon
	nwaiting int
	inbox    [][]remoteEvent // per destination shard
	stopping bool
	done     bool
	syncHook func(shard int) // test instrumentation; see SetSyncHook
}

// remoteEvent is one cross-shard event in flight: a Chan push stamped with its
// virtual fire time and a
// (source shard, per-source sequence) pair that makes the merge order total
// and deterministic.
type remoteEvent struct {
	t       Time
	src     int
	seq     uint64
	ch      *Chan
	payload interface{}
}

// shardCtl is the per-shard view of the sharded engine, attached to an
// Engine via its sh field. limit and the pending heap are only touched by
// the shard's controller goroutine and the proc it is running, so they need
// no locking; the shared synchronization plane lives in the ShardedEngine.
type shardCtl struct {
	se      *ShardedEngine
	id      int
	limit   Time          // exclusive bound on admissible event times
	pending []remoteEvent // min-heap by (t, src, seq)
	sendSeq uint64        // monotone per-source stamp for outgoing events
}

// NewShardedEngine creates n shard engines seeded deterministically from
// seed (shard 0 uses seed itself) with a uniform cross-shard lookahead.
// n must be >= 1; lookahead must be > 0 when n > 1. A one-shard engine is the
// legacy Engine verbatim: no shard controller is attached, so its replay is
// bit-identical to NewEngine(seed).
func NewShardedEngine(seed int64, n int, lookahead Duration) *ShardedEngine {
	if n < 1 {
		panic("sim: sharded engine needs at least 1 shard")
	}
	if n > 1 && lookahead <= 0 {
		panic("sim: sharded engine needs a positive cross-shard lookahead")
	}
	se := &ShardedEngine{
		shards:  make([]*Engine, n),
		look:    make([][]Duration, n),
		lb:      make([]Time, n),
		next:    make([]Time, n),
		waiting: make([]bool, n),
		inbox:   make([][]remoteEvent, n),
	}
	se.cond = sync.NewCond(&se.mu)
	for i := 0; i < n; i++ {
		// Derived seeds: shard 0 replays exactly like NewEngine(seed);
		// the golden-ratio stride decorrelates the other shards' streams.
		e := NewEngine(seed + int64(i)*0x9E3779B9)
		if n > 1 {
			e.sh = &shardCtl{se: se, id: i}
		}
		se.shards[i] = e
		se.look[i] = make([]Duration, n)
		for j := 0; j < n; j++ {
			if i != j {
				se.look[i][j] = lookahead
			}
		}
	}
	return se
}

// Shard returns shard i's engine. Upper layers schedule each simulated
// node's work on its owning shard's engine.
func (se *ShardedEngine) Shard(i int) *Engine { return se.shards[i] }

// Now returns the maximum of the shard clocks — after Run completes, the
// virtual time the whole simulation reached.
func (se *ShardedEngine) Now() Time {
	var t Time
	for _, e := range se.shards {
		if e.now > t {
			t = e.now
		}
	}
	return t
}

// Events reports the total events fired across all shards.
func (se *ShardedEngine) Events() uint64 {
	var n uint64
	for _, e := range se.shards {
		n += e.nevents
	}
	return n
}

// QueueStats sums the shards' event-queue counters; PeakHeap is the largest
// of the shards' peaks, each shard having a heap of its own.
func (se *ShardedEngine) QueueStats() (qs QueueStats) {
	for _, e := range se.shards {
		qs.AtNow += e.qs.AtNow
		qs.NewRun += e.qs.NewRun
		qs.Joined += e.qs.Joined
		qs.DeadlineLive += e.qs.DeadlineLive
		qs.DeadlineInert += e.qs.DeadlineInert
		qs.PeakHeap = max(qs.PeakHeap, e.qs.PeakHeap)
		qs.Resumes += e.qs.Resumes
		qs.SelfWakes += e.qs.SelfWakes
		qs.Drains += e.qs.Drains
		qs.Calls += e.qs.Calls
	}
	return qs
}

// Stop aborts a sharded run: every shard stops after the events it is
// currently committed to. Unlike the single-threaded engine, shards that
// were concurrently granted a horizon may fire events past the moment of
// the call, so the exact tail of a stopped run is not replay-stable —
// workloads that need bit-stable traces should terminate by draining.
func (se *ShardedEngine) Stop() {
	if len(se.shards) == 1 {
		se.shards[0].Stop()
		return
	}
	se.mu.Lock()
	se.stopping = true
	se.cond.Broadcast()
	se.mu.Unlock()
}

// SetSyncHook installs fn, called by each shard controller (with its shard
// id, outside the synchronization lock) once per synchronization round.
// It exists for the determinism property tests, which inject random
// wall-clock delays to shuffle cross-shard arrival order; production runs
// leave it nil.
func (se *ShardedEngine) SetSyncHook(fn func(shard int)) { se.syncHook = fn }

// computeDist closes the lookahead matrix over paths (Floyd–Warshall): a
// chain of cross-shard hops accumulates at least the per-edge lookaheads,
// so the shortest path D[j][i] bounds how soon *any* causal chain starting
// at shard j can deliver to shard i. The quiescence grant uses D to jump
// horizons directly to the globally safe bound instead of creeping there
// one direct-edge lookahead at a time.
func (se *ShardedEngine) computeDist() {
	n := len(se.shards)
	const inf = Duration(math.MaxInt64)
	d := make([][]Duration, n)
	for i := 0; i < n; i++ {
		d[i] = make([]Duration, n)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				d[i][j] = 0
			case se.look[i][j] > 0:
				d[i][j] = se.look[i][j]
			default:
				d[i][j] = inf
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if d[i][k] == inf {
				continue
			}
			for j := 0; j < n; j++ {
				if d[k][j] == inf {
					continue
				}
				if s := d[i][k] + d[k][j]; s < d[i][j] {
					d[i][j] = s
				}
			}
		}
	}
	se.dist = d
}

// Run drives all shards to completion and aggregates their termination
// state. With one shard it is exactly Engine.Run. With several, each shard
// runs its controller loop on its own goroutine; Run returns nil when every
// non-daemon proc finished (or any shard was stopped), else a
// *DeadlockError listing the blocked procs of every shard, shard-tagged. As
// with Engine.Run, a proc's panic or Goexit comes out of Run on the caller's
// goroutine, and the engine is not to be run again.
func (se *ShardedEngine) Run() error {
	if len(se.shards) == 1 {
		return se.shards[0].Run()
	}
	se.computeDist()
	se.mu.Lock()
	se.done = false
	for i := range se.shards {
		se.next[i] = 0
		// The bounds from the previous phase are stale — a completed Run
		// leaves every lb saturated at maxTime, which would hand each shard
		// an unbounded horizon before its peers post real bounds. Restart
		// the promise protocol from zero; lb=0 is always a safe promise.
		se.lb[i] = 0
		se.waiting[i] = false
	}
	se.nwaiting = 0
	se.mu.Unlock()

	// A proc that panics or calls runtime.Goexit (a t.Fatal) unwinds its
	// shard's controller goroutine. That must neither kill the process from a
	// goroutine the caller cannot see nor leave the other shards waiting on a
	// bound that will never move: stop them, and re-raise on the caller.
	var wg sync.WaitGroup
	var first sync.Once
	var failed bool
	var panicked interface{}
	for i := range se.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			returned := false
			defer func() {
				if !returned {
					v := recover()
					first.Do(func() { failed, panicked = true, v })
					se.Stop()
				}
			}()
			se.runShard(i)
			returned = true
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	} else if failed {
		runtime.Goexit()
	}

	stopped := false
	nlive := 0
	for _, e := range se.shards {
		e.releaseIdle()
		if e.stopped {
			stopped = true
		}
		nlive += e.nlive
	}
	if nlive > 0 && !stopped {
		var blocked []string
		for si, e := range se.shards {
			blocked = append(blocked, e.blocked(fmt.Sprintf("shard%d:", si))...)
		}
		sort.Strings(blocked)
		return &DeadlockError{Now: se.Now(), Blocked: blocked}
	}
	return nil
}

// runShard is one shard's controller loop: synchronize (drain mailbox, post
// bounds, compute horizon), then either drive the shard's event loop up to
// the horizon or block until a neighbour's bound moves.
func (se *ShardedEngine) runShard(i int) {
	e := se.shards[i]
	sh := e.sh
	n := len(se.shards)
	se.mu.Lock()
	for {
		if se.done {
			break
		}
		if se.stopping {
			e.stopped = true
		}
		// Drain the mailbox into the pending heap and refresh next[i].
		if in := se.inbox[i]; len(in) > 0 {
			for _, rev := range in {
				sh.pushPending(rev)
			}
			se.inbox[i] = in[:0]
		}
		_, nxt := e.head()
		if len(sh.pending) > 0 && sh.pending[0].t < nxt {
			nxt = sh.pending[0].t
		}
		se.next[i] = nxt
		if e.stopped {
			// Propagate the stop so no shard waits on our bound forever.
			se.stopping = true
			se.cond.Broadcast()
			break
		}
		h := se.horizonLocked(i)
		if lb := minTime(nxt, h); lb > se.lb[i] {
			se.lb[i] = lb
			se.cond.Broadcast()
		}
		if nxt < h {
			se.mu.Unlock()
			if se.syncHook != nil {
				se.syncHook(i)
			}
			sh.limit = h
			e.drive()
			se.mu.Lock()
			continue
		}
		// Blocked on the horizon. If everyone else is too, the lock gives a
		// consistent snapshot: either the whole run is complete, or the
		// quiescence grant jumps the bounds past the creep.
		if se.nwaiting == n-1 {
			if se.globalIdleLocked() {
				se.done = true
				se.cond.Broadcast()
				break
			}
			if se.grantLocked() {
				continue // our own bound may have moved; recompute
			}
		}
		se.waiting[i] = true
		se.nwaiting++
		se.cond.Wait()
		se.waiting[i] = false
		se.nwaiting--
	}
	se.mu.Unlock()
}

// horizonLocked computes shard i's input horizon from the posted bounds.
func (se *ShardedEngine) horizonLocked(i int) Time {
	h := maxTime
	for j := range se.shards {
		if j == i {
			continue
		}
		if b := se.lb[j].Add(se.look[j][i]); b < h {
			h = b
		}
	}
	return h
}

// globalIdleLocked reports whether the run is complete: every other shard
// blocked (the caller checked), every queue empty and every mailbox
// drained. Mailbox appends lower next[dst], so a non-empty inbox always
// shows as a finite next.
func (se *ShardedEngine) globalIdleLocked() bool {
	for j := range se.shards {
		if se.next[j] != maxTime || len(se.inbox[j]) != 0 {
			return false
		}
	}
	return true
}

// grantLocked performs the quiescence jump on a consistent snapshot (every
// shard blocked, nothing in flight): each shard's bound rises to
// min(next[k], min over j != k of next[j] + D[j][k]) — safe because any
// future event a shard sends is caused by a chain starting at some shard's
// current next event and accumulating at least the path lookahead, and
// sufficient because the globally earliest shard's own next event always
// falls under the granted horizon. Reports whether any bound moved.
func (se *ShardedEngine) grantLocked() bool {
	moved := false
	for k := range se.shards {
		g := se.next[k]
		for j := range se.shards {
			if j == k {
				continue
			}
			if b := se.next[j].Add(se.dist[j][k]); b < g {
				g = b
			}
		}
		if g > se.lb[k] {
			se.lb[k] = g
			moved = true
		}
	}
	if moved {
		se.cond.Broadcast()
	}
	return moved
}

// send routes a remote event from shard src to shard dst, validating the
// lookahead promise the synchronization protocol depends on. It runs in
// src's context (its controller goroutine or the proc that one is running).
func (se *ShardedEngine) send(src, dst int, rev remoteEvent) {
	e := se.shards[src]
	if min := e.now.Add(se.look[src][dst]); rev.t < min {
		panic(fmt.Sprintf(
			"sim: cross-shard event from shard %d at t=%v to shard %d at t=%v violates lookahead %v",
			src, e.now, dst, rev.t, se.look[src][dst]))
	}
	sh := e.sh
	rev.src = src
	rev.seq = sh.sendSeq
	sh.sendSeq++
	se.mu.Lock()
	se.inbox[dst] = append(se.inbox[dst], rev)
	if rev.t < se.next[dst] {
		// Keep the posted next fresh so the termination check and the
		// quiescence grant see the in-flight event.
		se.next[dst] = rev.t
	}
	if se.nwaiting > 0 {
		se.cond.Broadcast()
	}
	se.mu.Unlock()
}

// pushPending inserts rev into the pending min-heap, ordered by
// (t, src, seq) — the canonical cross-shard tie-break.
func (sh *shardCtl) pushPending(rev remoteEvent) {
	sh.pending = append(sh.pending, rev)
	q := sh.pending
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if !remoteLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// popPending removes the minimum remote event.
func (sh *shardCtl) popPending() remoteEvent {
	q := sh.pending
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = remoteEvent{}
	sh.pending = q[:n]
	q = sh.pending
	i := 0
	for {
		c := i*2 + 1
		if c >= n {
			break
		}
		if c+1 < n && remoteLess(q[c+1], q[c]) {
			c++
		}
		if !remoteLess(q[c], q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top
}

func remoteLess(a, b remoteEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// nextEvent merges the local calendar and the remote pending heap at pop
// time, bounded by the granted horizon. Equal-time ties go to the local
// stream: remote events never consume local sequence numbers, so the local
// replay prefix is untouched by when remote events physically arrived.
func (sh *shardCtl) nextEvent(e *Engine) (event, bool) {
	limit := sh.limit
	q, lt := e.head()
	if len(sh.pending) > 0 {
		if rt := sh.pending[0].t; rt < lt {
			if rt >= limit {
				return event{}, false
			}
			rev := sh.popPending()
			e.now = rev.t
			e.nevents++
			return event{ch: rev.ch, payload: rev.payload}, true
		}
	}
	if lt >= limit {
		return event{}, false
	}
	return e.pop(q, lt), true
}

// shardTurn is turn on a shard. Home pops the merge of the local calendar
// and the remote events under the horizon (see shardCtl.nextEvent) and fires
// every record up to a resume. A shard's worker only takes its own wake at the
// head (see popSelfWake) and leaves every other record to home, whose merge
// with the remote events and horizon it would otherwise have to repeat.
func (e *Engine) shardTurn(w *worker, p *Proc) *Proc {
	if w != nil {
		if p != nil && e.popSelfWake(p) {
			return p
		}
		return nil
	}
	for !e.stopped {
		ev, ok := e.sh.nextEvent(e)
		if !ok {
			return nil
		}
		if q := ev.resumes(); q != nil {
			return q
		}
		e.cur = nil
		e.fire(&ev)
	}
	return nil
}

// popSelfWake consumes the next event if it is p's own wake record, exactly
// as the shard's home would have popped it and resumed p, and reports whether
// it did.
func (e *Engine) popSelfWake(p *Proc) bool {
	q, t := e.head()
	if e.stopped || q == nil {
		return false
	}
	if q.peek().proc != p {
		return false
	}
	if sh := e.sh; t >= sh.limit || len(sh.pending) > 0 && sh.pending[0].t < t {
		return false
	}
	e.pop(q, t)
	e.qs.SelfWakes++
	return true
}

// SchedulePushShard is SchedulePush routed to the shard that owns the
// destination: local destinations (or a standalone engine) take the
// ordinary allocation-free path, remote ones become cross-shard mailbox
// events merged at (t, source shard, source sequence) order. t must respect
// the src->dst lookahead for remote destinations.
func (e *Engine) SchedulePushShard(dst int, t Time, ch *Chan, payload interface{}) {
	if e.sh == nil || dst == e.sh.id {
		e.SchedulePush(t, ch, payload)
		return
	}
	e.sh.se.send(e.sh.id, dst, remoteEvent{t: t, ch: ch, payload: payload})
}

// minTime returns the smaller of two times.
func minTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
