package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Chan.RecvIdle claims to be the loop
//
//	for ticks := 0; ; ticks++ {
//		if v, ok := c.RecvTimeout(p, tick); ok {
//			return v, ticks
//		}
//	}
//
// minus the resumes its ticks cost. These run seeded random schedules against
// both forms on twin engines and require the same run: the same messages at
// the same times after the same ticks, the same events, the same clock.

// idlePlan is one random schedule. Every time is on a 25 ns grid and the tick
// is 100 ns, so pushes land on deadlines' instants often, before the deadline
// in seq (pushed at set-up or by a proc advanced there early) and after it
// (pushed by a record that fires at that instant, between the deadline and
// the re-arm record or the wake it queues).
type idlePlan struct {
	receivers int
	delays    [2][]Duration // what each receiver spends on a message, cycled
	pushes    []idlePush
	kill      Time // 0: none; else receiver killWho is killed then
	killWho   int
	stop      Time // 0: none
	bystander []Duration
}

type idlePush struct {
	t    Time
	mode int // 0: a push record queued at set-up; 1: by a pusher proc; 2: queued lead ns before t
	lead Duration
}

const idleTick = 100

func randomIdlePlan(rng *rand.Rand) idlePlan {
	grid := func(n int) Time { return Time(25 * rng.Intn(n)) }
	pl := idlePlan{receivers: 1 + rng.Intn(2)}
	for r := range pl.delays {
		for i := 0; i < 4; i++ {
			pl.delays[r] = append(pl.delays[r], []Duration{0, 25, 50, 100, 150}[rng.Intn(5)])
		}
	}
	for i := rng.Intn(14); i > 0; i-- {
		pl.pushes = append(pl.pushes, idlePush{t: grid(80), mode: rng.Intn(3), lead: Duration(grid(5))})
	}
	// Kills and stops land on a deadline's instant or just after it.
	if rng.Intn(4) == 0 {
		pl.kill, pl.killWho = grid(80)+Time(rng.Intn(2)), rng.Intn(pl.receivers)
	}
	if rng.Intn(5) == 0 {
		pl.stop = grid(80) + Time(rng.Intn(2))
	}
	for i := rng.Intn(6); i > 0; i-- {
		pl.bystander = append(pl.bystander, Duration(grid(8)))
	}
	return pl
}

// idleRun is what one form of the schedule did.
type idleRun struct {
	log     []string
	ticks   int // the loop's ticks, also of a receive that never returned
	err     string
	events  uint64
	now     Time
	seq     uint64
	qs      QueueStats
	reasons []string
}

// runIdlePlan runs pl with every receive a RecvIdle (idle) or the RecvTimeout
// loop it stands for.
func runIdlePlan(pl idlePlan, idle bool) idleRun {
	e := NewEngine(1)
	var ch Chan
	var out idleRun
	logf := func(format string, args ...interface{}) {
		out.log = append(out.log, fmt.Sprintf("t=%d ", e.Now())+fmt.Sprintf(format, args...))
	}
	recvs := make([]*Proc, pl.receivers)
	for r := range recvs {
		r := r
		recvs[r] = e.Go(fmt.Sprintf("recv%d", r), func(p *Proc) {
			for i := 0; ; i++ {
				var v interface{}
				var ticks int
				if idle {
					v, ticks = ch.RecvIdle(p, idleTick)
				} else {
					for {
						var ok bool
						if v, ok = ch.RecvTimeout(p, idleTick); ok {
							break
						}
						ticks++
						out.ticks++
					}
				}
				logf("recv%d got %v after %d ticks", r, v, ticks)
				if v == -1 {
					return
				}
				p.Advance(pl.delays[r][i%len(pl.delays[r])])
			}
		})
	}
	var byProc []idlePush
	for i, ps := range pl.pushes {
		v := i + 1
		switch ps.mode {
		case 0:
			e.SchedulePush(ps.t, &ch, v)
		case 1:
			byProc = append(byProc, ps)
		case 2:
			e.Schedule(ps.t.Add(-ps.lead), func() { e.SchedulePush(ps.t, &ch, v) })
		}
	}
	e.Go("pusher", func(p *Proc) {
		for i, ps := range byProc {
			p.Advance(ps.t.Sub(p.Now()))
			ch.Push(100 + i)
		}
	})
	e.Go("bystander", func(p *Proc) {
		for _, d := range pl.bystander {
			p.Advance(d)
			logf("bystander")
		}
	})
	for range recvs {
		e.SchedulePush(2100, &ch, -1)
	}
	if pl.kill != 0 {
		e.Schedule(pl.kill, recvs[pl.killWho].Kill)
	}
	if pl.stop != 0 {
		e.Schedule(pl.stop, e.Stop)
	}
	if err := e.Run(); err != nil {
		out.err = err.Error()
	}
	out.events, out.now, out.seq, out.qs = e.Events(), e.Now(), e.seq, e.QueueStats()
	for _, p := range recvs {
		out.reasons = append(out.reasons, fmt.Sprintf("%s dead=%v reason=%q", p.Name(), p.Dead(), p.reason))
	}
	return out
}

func TestRecvIdleIsTheRecvTimeoutLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var rearms uint64
	for i := 0; i < 3000; i++ {
		pl := randomIdlePlan(rng)
		loop, idle := runIdlePlan(pl, false), runIdlePlan(pl, true)
		if fmt.Sprint(idle.log) != fmt.Sprint(loop.log) {
			t.Fatalf("plan %d %+v:\nRecvIdle:         %q\nRecvTimeout loop: %q", i, pl, idle.log, loop.log)
		}
		same := func(what string, got, want interface{}) {
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("plan %d %+v: %s %v with RecvIdle, %v with the loop", i, pl, what, got, want)
			}
		}
		same("Run error", idle.err, loop.err)
		same("Events()", idle.events, loop.events)
		same("Now()", idle.now, loop.now)
		same("final seq", idle.seq, loop.seq)
		same("receivers", idle.reasons, loop.reasons)
		same("deadline records live/inert",
			[2]uint64{idle.qs.DeadlineLive, idle.qs.DeadlineInert}, [2]uint64{loop.qs.DeadlineLive, loop.qs.DeadlineInert})
		if idle.qs.Rearms != uint64(loop.ticks) || loop.qs.Rearms != 0 {
			t.Fatalf("plan %d: %d re-arms with RecvIdle for the loop's %d ticks", i, idle.qs.Rearms, loop.ticks)
		}
		rearms += idle.qs.Rearms
	}
	if rearms == 0 {
		t.Fatal("no schedule re-armed an idle wait")
	}
}
