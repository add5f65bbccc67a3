package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// The lock and condition managers are quick handlers: a call record per
// request, in the queue slot its handler thread's first wake would take, and a
// kept acquire or block answered in the slot of that thread's Unpark. refSync
// is the threaded reference they must match — the managers they replaced, a
// handler thread per request parked on a grant Chan per queued acquire and a
// Chan per condition ticket — and TestQuickSyncMatchesThreaded holds the two
// to the same grant order, the same virtual timestamps for every thread and
// the same event count over seeded random lock and condition schedules.

const (
	refLockAcq     = "ref.lock.acquire"
	refLockRel     = "ref.lock.release"
	refCondReserve = "ref.cond.reserve"
	refCondBlock   = "ref.cond.block"
	refCondSignal  = "ref.cond.signal"
)

type refLock struct {
	home    int
	held    bool
	waiters []*sim.Chan
}

type refCond struct {
	lock, home, nextTkt int
	tickets             map[int]*sim.Chan
	order               []int
}

// refSync is the threaded lock and condition managers, on services of their
// own beside the DSM's. queued, parked and early count what the schedules
// exercised: acquires that waited, blocks that waited, and blocks that found
// their signal already in.
type refSync struct {
	locks                 []*refLock
	conds                 []*refCond
	queued, parked, early int
}

func newRefSync(d *DSM) *refSync {
	s := &refSync{}
	for i := 0; i < d.rt.Nodes(); i++ {
		node := d.rt.Node(i)
		node.Register(refLockAcq, true, func(h *pm2.Thread, arg interface{}) interface{} {
			ls := s.locks[arg.(*SyncEvent).Lock]
			if ls.held {
				ch := new(sim.Chan)
				ls.waiters = append(ls.waiters, ch)
				s.queued++
				ch.Recv(h.Proc())
			}
			ls.held = true
			return nil
		})
		node.Register(refLockRel, true, func(h *pm2.Thread, arg interface{}) interface{} {
			ls := s.locks[arg.(*SyncEvent).Lock]
			if len(ls.waiters) == 0 {
				ls.held = false
				return nil
			}
			ls.waiters[0].Push(true)
			ls.waiters = ls.waiters[1:]
			return nil
		})
		node.Register(refCondReserve, true, func(h *pm2.Thread, arg interface{}) interface{} {
			cs := s.conds[arg.(*condReq).id]
			cs.nextTkt++
			cs.tickets[cs.nextTkt] = new(sim.Chan)
			cs.order = append(cs.order, cs.nextTkt)
			return cs.nextTkt
		})
		node.Register(refCondBlock, true, func(h *pm2.Thread, arg interface{}) interface{} {
			req := arg.(*condReq)
			cs := s.conds[req.id]
			ch := cs.tickets[req.ticket]
			if ch.Len() > 0 {
				s.early++
			} else {
				s.parked++
			}
			ch.Recv(h.Proc())
			delete(cs.tickets, req.ticket)
			return nil
		})
		node.Register(refCondSignal, true, func(h *pm2.Thread, arg interface{}) interface{} {
			req := arg.(*condReq)
			cs := s.conds[req.id]
			n := 1
			if req.all {
				n = len(cs.order)
			}
			for ; n > 0 && len(cs.order) > 0; n-- {
				cs.tickets[cs.order[0]].Push(nil)
				cs.order = cs.order[1:]
			}
			return nil
		})
	}
	return s
}

// syncOps is the synchronization API a schedule runs on: the DSM's own, or
// refSync's copy of it.
type syncOps interface {
	acquire(th *pm2.Thread, lock int)
	release(th *pm2.Thread, lock int)
	wait(th *pm2.Thread, cond int)
	signal(th *pm2.Thread, cond int, all bool)
}

type dsmOps struct{ d *DSM }

func (o dsmOps) acquire(th *pm2.Thread, l int) { o.d.Acquire(th, l) }
func (o dsmOps) release(th *pm2.Thread, l int) { o.d.Release(th, l) }
func (o dsmOps) wait(th *pm2.Thread, c int)    { o.d.CondWait(th, c) }
func (o dsmOps) signal(th *pm2.Thread, c int, all bool) {
	if all {
		o.d.CondBroadcast(th, c)
	} else {
		o.d.CondSignal(th, c)
	}
}

// The reference's operations send what DSM.Acquire, Release, CondWait and
// CondSignal send, to the reference's services.
func (s *refSync) acquire(th *pm2.Thread, l int) {
	th.Call(s.locks[l].home, refLockAcq, &SyncEvent{Node: th.Node(), Lock: l}, ctrlBytes, ctrlBytes)
}

func (s *refSync) release(th *pm2.Thread, l int) {
	th.Call(s.locks[l].home, refLockRel, &SyncEvent{Node: th.Node(), Lock: l}, ctrlBytes, ctrlBytes)
}

func (s *refSync) wait(th *pm2.Thread, c int) {
	cs := s.conds[c]
	tkt := th.Call(cs.home, refCondReserve, &condReq{id: c}, ctrlBytes, ctrlBytes).(int)
	s.release(th, cs.lock)
	th.Call(cs.home, refCondBlock, &condReq{id: c, ticket: tkt}, ctrlBytes, ctrlBytes)
	s.acquire(th, cs.lock)
}

func (s *refSync) signal(th *pm2.Thread, c int, all bool) {
	th.Call(s.conds[c].home, refCondSignal, &condReq{id: c, all: all}, ctrlBytes, ctrlBytes)
}

// syncStep is one critical section of a schedule thread: acquire lock, wait
// on its condition or not, hold for hold (as CPU time when cpu), signal or
// broadcast its condition or neither, release, then pause for gap. A bare
// step only signals, without taking the lock, which can land a signal
// between a waiter's release and its block call.
type syncStep struct {
	lock              int
	bare, wait        bool
	hold, gap         sim.Duration
	cpu               bool
	signal, broadcast bool
}

// syncSchedule is one random program: lock homes (each lock has one
// condition), and per thread its node, start offset and sections.
type syncSchedule struct {
	nodes   int
	homes   []int
	threads []syncThread
}

type syncThread struct {
	node  int
	start sim.Duration
	steps []syncStep
}

func randomSyncSchedule(rng *rand.Rand) syncSchedule {
	us := func(n int) sim.Duration { return sim.Duration(rng.Intn(n)) * sim.Microsecond }
	s := syncSchedule{nodes: 2 + rng.Intn(3)}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		s.homes = append(s.homes, rng.Intn(s.nodes))
	}
	for i, n := 0, 2+rng.Intn(5); i < n; i++ {
		th := syncThread{node: rng.Intn(s.nodes), start: us(30)}
		for j, m := 0, 1+rng.Intn(5); j < m; j++ {
			step := syncStep{
				lock: rng.Intn(len(s.homes)), bare: rng.Intn(5) == 0, wait: rng.Intn(6) == 0,
				gap: us(20), cpu: rng.Intn(2) == 0,
				signal: rng.Intn(2) == 0, broadcast: rng.Intn(5) == 0,
			}
			if rng.Intn(3) > 0 { // else none: a signal straight after the grant
				step.hold = us(25)
			}
			th.steps = append(th.steps, step)
		}
		s.threads = append(s.threads, th)
	}
	return s
}

// run plays the schedule on the DSM's managers, or on the threaded reference
// when ref is set. It returns every thread's log of grants, waits, signals and
// releases with their virtual times in the order they happened, the blocked
// threads of a deadlocked run (handler threads left out: the reference parks
// one per waiting request, which is what it is for) and the event count.
func (s syncSchedule) run(ref bool) (log string, blocked []string, events uint64, r *refSync) {
	d := condDSM(nil, s.nodes)
	var ops syncOps = dsmOps{d}
	if ref {
		r = newRefSync(d)
		ops = r
	}
	for l, home := range s.homes {
		if ref {
			r.locks = append(r.locks, &refLock{home: home})
			r.conds = append(r.conds, &refCond{lock: l, home: home, tickets: map[int]*sim.Chan{}})
		} else {
			d.NewCond(d.NewLock(home))
		}
	}
	var b strings.Builder
	for i, st := range s.threads {
		d.rt.CreateThread(st.node, fmt.Sprintf("t%d", i), func(th *pm2.Thread) {
			note := func(what string, l int) { fmt.Fprintf(&b, "%s %s %d @%v\n", th.Name(), what, l, th.Now()) }
			th.Advance(st.start)
			for _, step := range st.steps {
				if step.bare {
					ops.signal(th, step.lock, step.broadcast)
					note("signalled", step.lock)
					th.Advance(step.gap)
					continue
				}
				ops.acquire(th, step.lock)
				note("granted", step.lock)
				if step.wait {
					ops.wait(th, step.lock)
					note("woken", step.lock)
				}
				if step.cpu {
					th.Compute(step.hold)
				} else {
					th.Advance(step.hold)
				}
				if step.signal || step.broadcast {
					ops.signal(th, step.lock, step.broadcast)
					note("signalled", step.lock)
				}
				ops.release(th, step.lock)
				note("released", step.lock)
				th.Advance(step.gap)
			}
		})
	}
	if err := d.rt.Run(); err != nil {
		de, ok := err.(*sim.DeadlockError)
		if !ok {
			panic(err)
		}
		for _, p := range de.Blocked {
			if !strings.HasPrefix(p, "rpch:") {
				blocked = append(blocked, p)
			}
		}
		blocked = append(blocked, fmt.Sprintf("at %v", de.Now))
	}
	return b.String(), blocked, d.rt.Engine().Events(), r
}

// TestQuickSyncMatchesThreaded: over 1 000 seeded random schedules — random
// lock homes, hold times on the CPU or off it, contended acquires, condition
// waits, signals and broadcasts under the lock and without it, some waits
// left waiting for good — the quick managers and the threaded reference grant
// in the same order at the same virtual times, end in the same deadlock or
// none, and fire the same number of events.
func TestQuickSyncMatchesThreaded(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var queued, parked, early, deadlocked int
	for i := 0; i < 1000; i++ {
		s := randomSyncSchedule(rng)
		want, wantBlocked, wantEvents, r := s.run(true)
		got, gotBlocked, gotEvents, _ := s.run(false)
		if got != want {
			t.Fatalf("schedule %d (%+v): quick managers' log differs from the threaded reference's\n got:\n%s\nwant:\n%s", i, s, got, want)
		}
		if !slices.Equal(gotBlocked, wantBlocked) {
			t.Fatalf("schedule %d: quick run ended blocked %v, reference %v", i, gotBlocked, wantBlocked)
		}
		if gotEvents != wantEvents {
			t.Fatalf("schedule %d: quick managers fired %d events, the reference %d", i, gotEvents, wantEvents)
		}
		queued, parked, early = queued+r.queued, parked+r.parked, early+r.early
		if len(wantBlocked) > 0 {
			deadlocked++
		}
	}
	if queued < 2000 || parked < 500 || early < 50 || deadlocked < 100 || deadlocked > 700 {
		t.Fatalf("schedules held %d queued acquires, %d parked and %d pre-signalled blocks, %d deadlocks in 1000: the generator no longer covers both endings and every kind of wait",
			queued, parked, early, deadlocked)
	}
}
