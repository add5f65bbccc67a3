package pm2

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dsmpm2/internal/sim"
)

// A serial service (Register with threaded false) runs one request at a time:
// the event loop starts a handler thread when a request finds it idle, and
// that thread takes the requests delivered meanwhile before it returns.
// refServerThread is what it replaced — one server thread per service, parked
// in a receive loop for the life of the machine — and
// TestSerialServiceMatchesServerThread holds the two to the same handler
// order and the same virtual timestamps over seeded request bursts.

// refServerThread serves name on node the old way: a daemon thread receiving
// requests from the service's unbound queue and handling them in turn. It
// returns a counter of the receives that found the queue empty, so parked:
// each but the last was ended by a request that found the server idle.
func refServerThread(rt *Runtime, node int, name string, h Handler) *int {
	svc := &service{handler: h, node: rt.Node(node), chanID: rt.ServiceID(name)}
	parks := new(int)
	rt.CreateThread(node, "rpcd:"+name, func(t *Thread) {
		for {
			msg, ok := rt.net.TryRecvID(node, rt.net.ChannelID("rpc:"+name))
			if !ok {
				*parks++
				msg = rt.net.RecvID(&t.proc, node, svc.chanID)
			}
			req := msg.Payload.(*Request)
			rt.net.FreeMessage(msg)
			svc.finish(req, h(t, req.arg))
		}
	}).proc.MarkDaemon()
	return parks
}

// serialCall is one request of a schedule: after gap, client sends it to
// serial service svc, synchronously or not, with an argument of size bytes;
// its handler then waits, computes or calls node echo's threaded service.
type serialCall struct {
	client, seq int
	gap         sim.Duration
	svc         int
	sync        bool
	size        int
	work        int // 0 advance, 1 compute, 2 nested call
	dur         sim.Duration
	echo        int
}

// serialSchedule is one seeded burst: clients on random nodes, each sending
// its calls in order to serial services on random nodes.
type serialSchedule struct {
	nodes    int
	svcNodes []int
	clients  []int
	calls    [][]*serialCall
}

func randomSerialSchedule(rng *rand.Rand) *serialSchedule {
	s := &serialSchedule{nodes: 2 + rng.Intn(3)}
	for i := 1 + rng.Intn(2); i > 0; i-- {
		s.svcNodes = append(s.svcNodes, rng.Intn(s.nodes))
	}
	for c := 1 + rng.Intn(5); c > 0; c-- {
		client := len(s.clients)
		s.clients = append(s.clients, rng.Intn(s.nodes))
		var calls []*serialCall
		for j := rng.Intn(12); j > 0; j-- {
			sc := &serialCall{
				client: client, seq: len(calls),
				gap:  sim.Duration(rng.Intn(4)*rng.Intn(10)) * sim.Microsecond,
				svc:  rng.Intn(len(s.svcNodes)),
				sync: rng.Intn(2) == 0,
				work: rng.Intn(3),
				dur:  sim.Duration(rng.Intn(30)) * sim.Microsecond,
				echo: rng.Intn(s.nodes),
			}
			if rng.Intn(4) == 0 {
				sc.size = 4096
			}
			calls = append(calls, sc)
		}
		s.calls = append(s.calls, calls)
	}
	return s
}

// serialRun is what one run of a schedule showed: each service's log of
// handler starts and ends and each client's of replies, stamped with their
// virtual times (events of different services and clients at one instant may
// interleave differently: a delivery to an idle serial service takes a drain
// record before the handler's wake, where the server thread's wake went at
// once); the events fired, the drain records among them and the threads made;
// and how many requests found their service idle, and how many busy.
type serialRun struct {
	log                     string
	events, drains, threads int
	idle, queued            int
}

// run plays s on a fresh machine, with its serial services registered (ref
// false) or served by refServerThread (ref true).
func (s *serialSchedule) run(t *testing.T, ref bool) serialRun {
	rt := newRT(s.nodes, nil)
	var r serialRun
	logs := make([]strings.Builder, len(s.svcNodes)+len(s.clients))
	logf := func(th *Thread, who int, format string, args ...interface{}) {
		fmt.Fprintf(&logs[who], "%v ", th.Now())
		fmt.Fprintf(&logs[who], format, args...)
		logs[who].WriteByte('\n')
	}
	for n := 0; n < s.nodes; n++ {
		rt.Node(n).Register("echo", true, func(h *Thread, arg interface{}) interface{} {
			h.Advance(sim.Microsecond)
			return arg
		})
	}
	var parks []*int
	for i, node := range s.svcNodes {
		name := fmt.Sprintf("serial%d", i)
		running, last := 0, 0
		h := func(h *Thread, arg interface{}) interface{} {
			sc := arg.(*serialCall)
			if running++; running > 1 {
				t.Errorf("ref=%v: %s runs two handlers at once", ref, name)
			}
			// A busy stretch of the serial service is one thread, with an id
			// of its own; the server thread keeps one id for good.
			if h.ID() != last {
				r.idle++
			}
			last = h.ID()
			logf(h, i, "%s start c%d.%d on node %d", name, sc.client, sc.seq, h.Node())
			switch sc.work {
			case 0:
				h.Advance(sc.dur)
			case 1:
				h.Compute(sc.dur)
			default:
				h.Call(sc.echo, "echo", sc, 0, 0)
			}
			logf(h, i, "%s end c%d.%d", name, sc.client, sc.seq)
			running--
			r.queued++
			return sc.seq
		}
		if ref {
			parks = append(parks, refServerThread(rt, node, name, h))
		} else {
			rt.Node(node).Register(name, false, h)
		}
	}
	for c, node := range s.clients {
		calls := s.calls[c]
		rt.CreateThread(node, fmt.Sprintf("c%d", c), func(th *Thread) {
			for _, sc := range calls {
				th.Advance(sc.gap)
				dest, name := s.svcNodes[sc.svc], fmt.Sprintf("serial%d", sc.svc)
				if !sc.sync {
					th.Async(dest, name, sc, sc.size)
					continue
				}
				v := th.Call(dest, name, sc, sc.size, 0)
				logf(th, len(s.svcNodes)+c, "c%d.%d reply %v", c, sc.seq, v)
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("ref=%v: %v", ref, err)
	}
	if ref {
		r.idle = 0
		for _, p := range parks {
			r.idle += *p - 1 // the last receive is still parked
		}
	}
	r.queued -= r.idle
	var b strings.Builder
	for i := range logs {
		b.WriteString(logs[i].String())
		b.WriteString("--\n")
	}
	r.log, r.events, r.threads = b.String(), int(rt.Engine().Events()), rt.ThreadCount()
	r.drains = int(rt.Engine().QueueStats().Drains)
	return r
}

// TestSerialServiceMatchesServerThread: over 500 seeded bursts of one-way and
// synchronous requests — bulk and small, back to back and spread out, with
// handlers that wait, compute or call out — a serial service and the server
// thread it replaced start every handler in the same order at the same
// virtual time, never two at once, and reply at the same times. The counts
// differ only as the mechanisms do: a request that finds the service idle
// takes a drain record and a handler thread's start where it woke the server
// thread, one event and one thread more; one that finds it busy waits in the
// queue either way, at no event; and the server threads' starts are saved.
func TestSerialServiceMatchesServerThread(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var idle, queued int
	for i := 0; i < 500; i++ {
		s := randomSerialSchedule(rng)
		want, got := s.run(t, true), s.run(t, false)
		if got.log != want.log {
			t.Fatalf("schedule %d: serial service's log differs from the server thread's\n got:\n%s\nwant:\n%s", i, got.log, want.log)
		}
		if got.idle != want.idle {
			t.Fatalf("schedule %d: %d requests found the serial service idle, %d the server thread", i, got.idle, want.idle)
		}
		shift := got.idle - len(s.svcNodes)
		if d := got.events - want.events; d != shift || got.drains-want.drains != got.idle {
			t.Fatalf("schedule %d: serial service fired %d events more than the server thread (%d drain records), want %d (%d)",
				i, d, got.drains-want.drains, shift, got.idle)
		}
		if d := got.threads - want.threads; d != shift {
			t.Fatalf("schedule %d: serial service made %d threads more than the server thread, want %d", i, d, shift)
		}
		idle, queued = idle+want.idle, queued+want.queued
	}
	if idle < 2000 || queued < 2000 {
		t.Fatalf("schedules had %d idle deliveries and %d queued ones: the generator no longer covers both", idle, queued)
	}
}
