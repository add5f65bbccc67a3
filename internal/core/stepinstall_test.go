package core_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/protocols"
	"dsmpm2/internal/sim"
)

// The core installs every page on the receiving node's installer, a step proc.
// refInstall is the threaded reference it must match: the serial dsm.page
// service it replaced, a handler thread that takes the pages one at a time in
// arrival order and runs the same body. TestStepInstallMatchesThreadInstall
// runs li_hudak over the same random schedules on both and holds them to the
// same log for every thread, the same timing for every fault, the same event
// count and the same final memory on every node.

// installOp is one access or pause of a schedule thread.
type installOp struct {
	kind int // opRead, opWrite, opCompute, opAdvance
	page int
	d    sim.Duration
}

const (
	opRead = iota
	opWrite
	opCompute
	opAdvance
)

type installThread struct {
	node  int
	start sim.Duration
	ops   []installOp
}

// installSchedule is one random program: pages homed round-robin, threads
// faulting on them and keeping CPUs busy, and at most one node crash (with or
// without a restart) at a time that often falls inside an install.
type installSchedule struct {
	nodes, pages int
	threads      []installThread
	crashAt      sim.Duration // 0: no crash
	crashNode    int
	restartAfter sim.Duration // 0: the node stays down
}

func randomInstallSchedule(rng *rand.Rand) installSchedule {
	// Durations in 5 us steps and starts in 10 us steps line events up, so
	// that pages reach a node in the same instant.
	step := func(n int, unit sim.Duration) sim.Duration { return sim.Duration(rng.Intn(n)) * unit }
	s := installSchedule{nodes: 2 + rng.Intn(3), pages: 1 + rng.Intn(3)}
	for i, n := 0, 2+rng.Intn(7); i < n; i++ {
		th := installThread{node: rng.Intn(s.nodes), start: step(4, 10*sim.Microsecond)}
		for j, m := 0, 1+rng.Intn(8); j < m; j++ {
			op := installOp{page: rng.Intn(s.pages), d: step(9, 5*sim.Microsecond)}
			switch r := rng.Intn(20); {
			case r < 9:
				op.kind = opRead
			case r < 13:
				op.kind = opWrite
			case r < 18:
				op.kind = opCompute
				op.d *= 3
			default:
				op.kind = opAdvance
			}
			th.ops = append(th.ops, op)
		}
		s.threads = append(s.threads, th)
	}
	if rng.Intn(3) == 0 {
		s.crashAt = 20*sim.Microsecond + sim.Duration(rng.Intn(200))*sim.Microsecond
		s.crashNode = 1 + rng.Intn(s.nodes-1)
		if rng.Intn(2) == 0 {
			s.restartAfter = sim.Duration(50+rng.Intn(250)) * sim.Microsecond
		}
	}
	return s
}

// installCoverage counts, on the thread path, what a schedule exercised:
// installs, installs that waited for the entry lock or a CPU, copies an
// invalidation overtook, pages that reached their node in the same instant as
// the node's previous page, and installs a crash cut short.
type installCoverage struct {
	installs, waited, overtaken, sameInstant, killed int
}

// refInstall rebinds node's install channel to the dsm.page handler thread:
// each page that finds the channel bound starts a thread, which installs it
// and then the pages queued meanwhile, and binds the channel again when none
// is left. It counts into cov what the pages exercised.
type refInstall struct {
	d           *core.DSM
	rt          *pm2.Runtime
	cov         *installCoverage
	crash       bool
	lastArrival []sim.Time
	sinks       []func(interface{})
}

func newRefInstall(d *core.DSM, rt *pm2.Runtime, cov *installCoverage, crash bool) *refInstall {
	r := &refInstall{d: d, rt: rt, cov: cov, crash: crash, lastArrival: make([]sim.Time, rt.Nodes())}
	for n := range r.lastArrival {
		r.lastArrival[n] = -1
		r.sinks = append(r.sinks, func(v interface{}) { r.deliver(n, v) })
		r.bind(n)
	}
	return r
}

func (r *refInstall) bind(node int) {
	r.rt.Network().Serve(node, r.d.InstallChannel(), r.sinks[node])
}

func (r *refInstall) deliver(node int, v interface{}) {
	r.rt.Network().Unserve(node, r.d.InstallChannel())
	r.rt.CreateThread(node, fmt.Sprintf("rpch:dsm.page@%d", node), func(h *pm2.Thread) {
		for {
			msg := v.(*madeleine.Message)
			pm := msg.Payload.(*core.PageMsg)
			r.rt.Network().FreeMessage(msg)
			r.install(h, pm)
			next, ok := r.rt.Network().TryRecvID(node, r.d.InstallChannel())
			if !ok {
				r.bind(node)
				return
			}
			v = next
		}
	})
}

// install is the handler thread's body for one page.
func (r *refInstall) install(h *pm2.Thread, pm *core.PageMsg) {
	d, cov := r.d, r.cov
	start := h.Now()
	e := d.ArrivePage(pm, h.Node())
	cov.installs++
	if pm.Timing != nil {
		// A page's arrival is its handler's start less the time it queued,
		// which is its Transfer beyond the link's latency.
		arrival := start.Add(madeleine.BIPMyrinet.Transfer(core.PageSize) - pm.Timing.Transfer)
		if r.lastArrival[pm.Node] == arrival {
			cov.sameInstant++
		}
		r.lastArrival[pm.Node] = arrival
	}
	node, pg, access := pm.Node, pm.Page, pm.Access
	cov.killed++ // undone below unless a crash cuts the install short
	e.Lock(h)
	h.Compute(d.Costs().Install)
	d.InstallLocked(pm, e)
	e.Unlock(h)
	d.FreePageMsg(pm)
	cov.killed--
	if h.Now().Sub(start) > d.Costs().Install {
		cov.waited++
	}
	if fr := d.Space(node).Frame(pg); !r.crash && (fr == nil || fr.Access != access) {
		cov.overtaken++
	}
}

// run plays s on li_hudak, its pages installed by the installer or, with
// threaded set, by refInstall, which counts into cov.
func (s installSchedule) run(threaded bool, cov *installCoverage) (log string, events uint64) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: s.nodes, Network: madeleine.BIPMyrinet, Seed: 1})
	reg, ids := protocols.NewRegistry()
	d := core.New(rt, reg)
	d.SetDefaultProtocol(ids.LiHudak)
	var ref *refInstall
	if threaded {
		ref = newRefInstall(d, rt, cov, s.crashAt > 0)
	}
	eng := rt.Engine()
	if s.crashAt > 0 {
		eng.Schedule(sim.Time(s.crashAt), func() { d.CrashNode(s.crashNode) })
		if s.restartAfter > 0 {
			eng.Schedule(sim.Time(s.crashAt+s.restartAfter), func() {
				d.RestartNode(s.crashNode)
				if ref != nil {
					ref.bind(s.crashNode) // the restart bound the node's new installer
				}
			})
		}
	}
	pages := make([]core.Addr, s.pages)
	for i := range pages {
		pages[i] = d.MustMalloc(i%s.nodes, core.PageSize, nil)
	}
	var b strings.Builder
	for i, st := range s.threads {
		rt.CreateThread(st.node, fmt.Sprintf("t%d", i), func(th *pm2.Thread) {
			th.Advance(st.start)
			for k, op := range st.ops {
				addr := pages[op.page] + core.Addr(8*i)
				switch op.kind {
				case opRead:
					fmt.Fprintf(&b, "%s read %d = %d", th.Name(), op.page, d.ReadUint64(th, addr))
				case opWrite:
					d.WriteUint64(th, addr, uint64(100*i+k+1))
					fmt.Fprintf(&b, "%s wrote %d", th.Name(), op.page)
				case opCompute:
					th.Compute(op.d)
					fmt.Fprintf(&b, "%s computed", th.Name())
				case opAdvance:
					th.Advance(op.d)
					fmt.Fprintf(&b, "%s advanced", th.Name())
				}
				fmt.Fprintf(&b, " @%v\n", th.Now())
			}
		})
	}
	eng.Schedule(sim.Time(50*sim.Millisecond), eng.Stop) // bounds a recovery that retries for good
	if err := rt.Run(); err != nil {
		fmt.Fprintf(&b, "run: %v\n", err)
	}
	for _, ft := range d.Timings().All() {
		fmt.Fprintf(&b, "fault %+v\n", *ft)
	}
	for n := 0; n < s.nodes; n++ {
		for pg, base := range pages {
			if fr := d.Space(n).Frame(d.Space(n).PageOf(base)); fr != nil {
				h := fnv.New64a()
				h.Write(fr.Data)
				fmt.Fprintf(&b, "node %d page %d access %v data %x\n", n, pg, fr.Access, h.Sum64())
			}
		}
	}
	fmt.Fprintf(&b, "stats %+v\n", d.Stats())
	return b.String(), eng.Events()
}

// TestStepInstallMatchesThreadInstall: over 1 000 seeded random schedules —
// pages arriving at a node in the same instant, entry locks held by request
// and invalidation servers, CPUs busy with compute threads and servers,
// invalidations that overtake a copy in flight, a node crashing in the middle
// of an install — the installer's steps and the handler thread install in the
// same order at the same times, wake the same threads, fire the same number of
// events and leave every node's memory the same.
func TestStepInstallMatchesThreadInstall(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var cov installCoverage
	for i := 0; i < 1000; i++ {
		s := randomInstallSchedule(rng)
		want, wantEvents := s.run(true, &cov)
		got, gotEvents := s.run(false, nil)
		if got != want {
			t.Fatalf("schedule %d (%+v): step install differs from the handler thread's\n got:\n%s\nwant:\n%s", i, s, got, want)
		}
		if gotEvents != wantEvents {
			t.Fatalf("schedule %d: step install fired %d events, the handler thread %d", i, gotEvents, wantEvents)
		}
	}
	t.Logf("coverage %+v", cov)
	if cov.installs < 3500 || cov.waited < 90 || cov.overtaken < 250 || cov.sameInstant < 15 || cov.killed < 8 {
		t.Fatalf("coverage %+v: the generator no longer exercises every kind of install", cov)
	}
}
