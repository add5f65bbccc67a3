package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"unsafe"
)

// A model-based differential test of the event queue. A program is a byte
// string, two bytes per step: an operation and a time selector. It is run
// white-box against the engine's queue — push, pop, the event loop's turn (on
// a shard: popSelfWake) and, on a shard, shardCtl.nextEvent with remote events in the
// pending heap — and against calModel, which keeps every queued record in a
// flat list and finds the next one by scanning for the least (time, seq). The
// two must agree on every pop, on every record a yielding proc fires, on every
// refusal and on the next event's time after every step. A push made after
// the first pop is what a firing event's own scheduling looks like to the
// queue: the clock stands at the time of the last event fired.

const (
	calPop      = iota // fire the next event through pop (on a shard: nextEvent)
	calSelfWake        // yield: turn (on a shard: popSelfWake) must stop at the right record
	calWake            // push a wake record (of a dead proc for every fourth record)
	calChan            // push a Chan push record
	calClosure         // push a closure record
	calDeadline        // push a deadline record (a call record, inert: its proc never waits)
	calRemote          // shard: queue a remote event in the pending heap (else: a closure record)
	calLimit           // shard: move the horizon (else: fire the next event)
	calDrain           // push a drain record of a bound channel holding one message
	calOps
)

// calRec is one queued record as the model sees it.
type calRec struct {
	t      Time
	seq    uint64 // push order; for a remote record its per-source stamp
	src    int    // remote records only
	id     int
	kind   int
	remote bool
}

type calModel struct {
	now           Time
	seq           uint64
	local, remote []calRec
}

func (m *calModel) push(r calRec) calRec {
	if r.t < m.now {
		r.t = m.now
	}
	m.seq++
	r.seq = m.seq
	m.local = append(m.local, r)
	return r
}

// least returns the index of the first record in the order less, -1 if none.
func least(recs []calRec, less func(a, b calRec) bool) int {
	best := -1
	for i, r := range recs {
		if best < 0 || less(r, recs[best]) {
			best = i
		}
	}
	return best
}

// next returns the record that fires next under an exclusive horizon limit:
// the least local record by (t, seq) unless the least remote one by
// (t, src, seq) is strictly earlier.
func (m *calModel) next(limit Time) (rec calRec, ok bool) {
	l := least(m.local, func(a, b calRec) bool { return a.t < b.t || a.t == b.t && a.seq < b.seq })
	r := least(m.remote, func(a, b calRec) bool {
		return remoteLess(remoteEvent{t: a.t, src: a.src, seq: a.seq}, remoteEvent{t: b.t, src: b.src, seq: b.seq})
	})
	switch {
	case r >= 0 && (l < 0 || m.remote[r].t < m.local[l].t):
		rec = m.remote[r]
	case l >= 0:
		rec = m.local[l]
	default:
		return calRec{}, false
	}
	return rec, rec.t < limit
}

// head returns the local record that would fire next were there no remote
// events and no horizon: the head of the engine's own queue.
func (m *calModel) head() (calRec, bool) { return (&calModel{local: m.local}).next(maxTime) }

// order returns the local records in the order they fire.
func (m *calModel) order() []calRec {
	recs := append([]calRec(nil), m.local...)
	sort.Slice(recs, func(i, j int) bool {
		return recs[i].t < recs[j].t || recs[i].t == recs[j].t && recs[i].seq < recs[j].seq
	})
	return recs
}

// calDead reports whether the proc of record id is dead: every fourth one.
func calDead(id int) bool { return id%4 == 3 }

// resumes reports whether r, fired, resumes a proc: a live proc's wake.
func (r calRec) resumes() bool {
	return r.kind == calWake && !r.remote && !calDead(r.id)
}

// fire removes rec, which next returned, and moves the clock to it.
func (m *calModel) fire(rec calRec) {
	list := &m.local
	if rec.remote {
		list = &m.remote
	}
	for i, r := range *list {
		if r.id == rec.id {
			*list = append((*list)[:i], (*list)[i+1:]...)
			break
		}
	}
	m.now = rec.t
}

// calThread marks the program's procs as threads, which a wake resumes; a
// proc with no worker is a step proc, whose wake fires in engine context.
var calThread = new(worker)

// runCalendarProgram interprets prog on a standalone engine's queue or on a
// shard's, failing t at the first disagreement with the model.
func runCalendarProgram(t testing.TB, prog []byte, sharded bool) {
	e := NewEngine(1)
	e.nlive = 1 // the yielding proc: no record is parking
	limit := maxTime
	var sh *shardCtl
	if sharded {
		sh = &shardCtl{limit: limit}
		e.sh = sh
	}
	var m calModel
	var procs []*Proc // by record id; nil for records that carry no proc
	var sched []calRec
	var fired []int
	var closures []int // ids of the closure and drain records fired, in order
	ch := new(Chan)
	var fresh Time
	var remoteSeq [2]uint64

	when := func(arg byte) Time {
		now := m.now
		epoch := now&^63 + 64
		switch arg & 7 {
		case 0, 1:
			return now
		case 2:
			return now - 3 // the past: clamped to now
		case 3, 4: // a time no other record has
			fresh = max(fresh, now+200) + 1 + Time(arg>>3)
			return fresh
		case 5: // two times that programs alternate between, so that one
			return epoch + 8 // time owns several runs
		case 6:
			return epoch + 24
		}
		return now + Time(arg>>3)
	}
	push := func(kind int, at Time) {
		id := len(procs)
		rec := m.push(calRec{t: at, id: id, kind: kind})
		sched = append(sched, rec)
		var p *Proc
		switch kind {
		case calWake:
			p = &Proc{id: int32(id), eng: e, w: calThread, dead: calDead(id)}
			e.scheduleWake(at, p)
		case calChan:
			e.SchedulePush(at, ch, id)
		case calClosure:
			e.Schedule(at, func() { closures = append(closures, id) })
		case calDeadline:
			p = &Proc{id: int32(id), eng: e, w: calThread}
			e.ScheduleCall(at, &deadline{p, uint64(id) + 1, new(procQueue)})
		case calDrain:
			bound := &Chan{eng: e, sink: func(v interface{}) { closures = append(closures, v.(int)) }}
			bound.q.push(id)
			e.ScheduleCall(at, (*drain)(bound))
		}
		procs = append(procs, p)
	}
	idOf := func(ev event) int {
		switch {
		case ev.proc != nil:
			return int(ev.proc.id)
		case ev.ch != nil:
			return ev.payload.(int)
		}
		if d, ok := ev.payload.(*deadline); ok {
			id := int(d.gen) - 1
			if int(d.p.id) != id {
				t.Fatalf("deadline record of gen %d names proc %d", d.gen, d.p.id)
			}
			d.Fire()
			return id
		}
		ev.payload.(Caller).Fire()
		return closures[len(closures)-1]
	}
	// fire pops one event the way drive would and checks it against the model.
	fire := func() bool {
		want, ok := m.next(limit)
		var ev event
		got := e.nqueued > 0
		if sharded {
			ev, got = sh.nextEvent(e)
		} else if got {
			ev = e.pop(e.head())
		}
		if got != ok {
			t.Fatalf("step fired an event = %v, model says %v (next %+v, limit %d)", got, ok, want, limit)
		}
		if !ok {
			return false
		}
		if id := idOf(ev); id != want.id || e.now != want.t {
			t.Fatalf("fired record %d at t=%d, model says record %d at t=%d", id, e.now, want.id, want.t)
		}
		m.fire(want)
		fired = append(fired, want.id)
		return true
	}

	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%calOps, prog[i+1]
		switch {
		case op == calPop, op == calLimit && !sharded:
			fire()
		case op == calSelfWake && sharded:
			want, ok := m.next(limit)
			isWake := ok && !want.remote && want.kind == calWake && want.resumes()
			p := &Proc{eng: e, w: calThread}
			if l, any := m.head(); any && procs[l.id] != nil && !calDead(l.id) && (isWake || arg&1 == 0) {
				// The proc of the queue's head: a wake record's must be
				// taken, a deadline record's refused.
				p = procs[l.id]
			}
			if got := e.popSelfWake(p); got != isWake {
				t.Fatalf("popSelfWake = %v, model says %v (next %+v ok=%v)", got, isWake, want, ok)
			}
			if isWake {
				if e.now != want.t {
					t.Fatalf("self-wake at t=%d, model says t=%d", e.now, want.t)
				}
				m.fire(want)
				fired = append(fired, want.id)
			}
		case op == calSelfWake:
			// The model's yield: fire every record up to the first that
			// resumes a proc and consume that one too, handing over its
			// proc. The yielding proc is that record's or, for odd args, a
			// bystander's.
			p := &Proc{eng: e, w: calThread}
			var fire []calRec
			var stop *calRec
			for _, r := range m.order() {
				if r.resumes() {
					stop = &r
					break
				}
				fire = append(fire, r)
			}
			var want *Proc
			if stop != nil {
				want = procs[stop.id]
				if arg&1 == 0 {
					p = want
				}
				fire = append(fire, *stop)
			}
			events, inert := e.nevents, e.qs.DeadlineInert
			nclosures, nmsgs := len(closures), ch.Len()
			e.cur = p
			if got := e.turn(p.w, p); got != want {
				t.Fatalf("turn handed over %v, model says %v (stop %+v)", got, want, stop)
			}
			if e.cur != p {
				t.Fatalf("turn left Cur() = %v, want the yielding proc", e.cur)
			}
			var wantClosures, wantMsgs []int
			var wantInert uint64
			for _, r := range fire {
				switch r.kind {
				case calClosure, calRemote, calDrain:
					wantClosures = append(wantClosures, r.id)
				case calChan:
					wantMsgs = append(wantMsgs, r.id)
				case calDeadline:
					wantInert++
				}
				m.fire(r)
				fired = append(fired, r.id)
			}
			var msgs []int
			for ch.Len() > nmsgs {
				v, _ := ch.TryRecv()
				msgs = append(msgs, v.(int))
			}
			switch {
			case e.nevents-events != uint64(len(fire)):
				t.Fatalf("yield fired %d records, model says %d", e.nevents-events, len(fire))
			case e.now != m.now:
				t.Fatalf("yield left the clock at t=%d, model says t=%d", e.now, m.now)
			case fmt.Sprint(closures[nclosures:]) != fmt.Sprint(wantClosures):
				t.Fatalf("yield fired closures %v, model says %v", closures[nclosures:], wantClosures)
			case fmt.Sprint(msgs) != fmt.Sprint(wantMsgs):
				t.Fatalf("yield delivered %v, model says %v", msgs, wantMsgs)
			case e.qs.DeadlineInert-inert != wantInert:
				t.Fatalf("yield fired %d deadline records, model says %d", e.qs.DeadlineInert-inert, wantInert)
			}
		case op == calRemote && sharded:
			src := int(arg>>3) & 1
			rec := calRec{t: max(when(arg), m.now+1), src: src, seq: remoteSeq[src], id: len(procs), kind: calChan, remote: true}
			remoteSeq[src]++
			m.remote = append(m.remote, rec)
			procs = append(procs, nil)
			sh.pushPending(remoteEvent{t: rec.t, src: src, seq: rec.seq, ch: ch, payload: rec.id})
		case op == calRemote:
			push(calClosure, when(arg))
		case op == calLimit:
			limit = maxTime
			if arg&1 == 0 {
				limit = m.now + Time(arg>>1)
			}
			sh.limit = limit
		default:
			push(int(op), when(arg))
		}
		wantNext := maxTime
		if l, ok := m.head(); ok {
			wantNext = l.t
		}
		if _, got := e.head(); got != wantNext {
			t.Fatalf("after step %d the queue's head is at t=%d, model says %d", i/2, got, wantNext)
		}
	}
	limit = maxTime
	if sharded {
		sh.limit = limit
	}
	for fire() {
	}
	if e.nqueued != 0 || e.nowRing.len() != 0 || len(e.heap) != 0 || e.last.q != nil {
		t.Fatalf("drained queue holds nqueued=%d ring=%d heap=%d last=%v", e.nqueued, e.nowRing.len(), len(e.heap), e.last.q)
	}
	if sharded {
		return
	}
	// Without remote events the whole pop sequence is one stable sort of the
	// schedule by time: records were logged in seq order, with clamped times.
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].t < sched[j].t })
	for i, r := range sched {
		if fired[i] != r.id {
			t.Fatalf("pop %d fired record %d, stable sort by (t, seq) says %d", i, fired[i], r.id)
		}
	}
}

// randomCalendarProgram draws 20 to 200 uniform steps: five pushes to every
// three pops (the rest is drained at the end), three pushes in eight at or
// before the current instant.
func randomCalendarProgram(rng *rand.Rand) []byte {
	prog := make([]byte, 2*(20+rng.Intn(180)))
	rng.Read(prog)
	return prog
}

func TestCalendarMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 2000; i++ {
		prog := randomCalendarProgram(rng)
		runCalendarProgram(t, prog, false)
		runCalendarProgram(t, prog, true)
	}
}

// abab alternates pushes between two future times, three kinds of record at
// each, then self-wakes and pops its way through them: every time owns several
// runs, and only the (t, first seq) tie-break keeps them in order. It runs as
// a seed of FuzzCalendarOrder under plain go test.
var abab = []byte{
	calWake, 5, calChan, 6, calDeadline, 5, calWake, 6, calClosure, 5, calWake, 6, calWake, 5, calDeadline, 6,
	calSelfWake, 0, calPop, 0, calSelfWake, 0, calWake, 0, calSelfWake, 1, calPop, 0, calWake, 2, calPop, 0,
}

// yieldOver queues, at one time, a closure, a deadline, a push, a dead
// proc's wake and a drain ahead of two wakes: a yield by a bystander fires
// the first five and hands the turn to the first wake's proc, and one by the
// second wake's proc then takes its own wake. A drain and a wake queued at
// that instant then stop a bystander's yield after the drain.
var yieldOver = []byte{
	calClosure, 5, calDeadline, 5, calChan, 5, calWake, 5, calDrain, 5, calWake, 5, calWake, 5,
	calSelfWake, 1, calSelfWake, 0, calDrain, 0, calWake, 0, calSelfWake, 1,
}

func FuzzCalendarOrder(f *testing.F) {
	f.Add(abab)
	f.Add(yieldOver)
	f.Add([]byte{calWake, 3, calRemote, 3, calLimit, 8, calPop, 0, calRemote, 0, calWake, 0, calPop, 0, calLimit, 1, calPop, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		runCalendarProgram(t, prog, false)
		runCalendarProgram(t, prog, true)
	})
}

// TestEventIsThreeWords pins a calendar record at its three fields: a wake
// (proc), a push (ch) or a call (payload), 32 bytes inline in the queue.
func TestEventIsThreeWords(t *testing.T) {
	var fields []string
	for typ, i := reflect.TypeFor[event](), 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	if n := unsafe.Sizeof(event{}); n != 32 || fmt.Sprint(fields) != "[proc ch payload]" {
		t.Errorf("event is %d bytes with fields %v, want 32 bytes with [proc ch payload]", n, fields)
	}
}
