package protocols

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// A protocol that embeds core.StandardInstall has its pages installed by the
// receiving node's installer, a step proc, instead of a dsm.page handler
// thread. TestStepInstallMatchesThreadInstall holds the two to the same
// virtual behaviour: li_hudak, and li_hudak's routines rebuilt as core.Hooks
// whose OnReceivePage is core.InstallPage (the thread path), run the same
// random schedules and must agree on every thread's log, every fault's
// timing, the event count and the final memory of every node.

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
	nodes, pages, cpus int
	threads            []installThread
	crashAt            sim.Duration // 0: no crash
	crashNode          int
	restartAfter       sim.Duration // 0: the node stays down
}

func randomInstallSchedule(rng *rand.Rand) installSchedule {
	// Durations in 5 us steps and starts in 10 us steps line events up, so
	// that pages reach a node in the same instant.
	step := func(n int, unit sim.Duration) sim.Duration { return sim.Duration(rng.Intn(n)) * unit }
	s := installSchedule{nodes: 2 + rng.Intn(3), pages: 1 + rng.Intn(3), cpus: 1 + rng.Intn(2)}
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

// run plays s on li_hudak, or with threaded set on li_hudak's routines
// behind core.Hooks, counting into cov on the latter.
func (s installSchedule) run(threaded bool, cov *installCoverage) (log string, events uint64) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: s.nodes, CPUsPerNode: s.cpus, Network: madeleine.BIPMyrinet, Seed: 1})
	var d *core.DSM
	if threaded {
		d = core.New(rt, core.NewRegistry(), core.DefaultCosts())
		lh := &liHudak{d: d}
		// A page's arrival is its handler's start less the time it queued,
		// which is its Transfer beyond the link's latency.
		latency := madeleine.BIPMyrinet.Transfer(core.PageSize)
		lastArrival := make([]sim.Time, s.nodes)
		for i := range lastArrival {
			lastArrival[i] = -1
		}
		d.SetDefaultProtocol(d.CreateProtocol(&core.Hooks{
			ProtoName:     "li_hudak",
			OnReadFault:   lh.ReadFaultHandler,
			OnWriteFault:  lh.WriteFaultHandler,
			OnReadServer:  lh.ReadServer,
			OnWriteServer: lh.WriteServer,
			OnInvalidate:  lh.InvalidateServer,
			OnReceivePage: func(pm *core.PageMsg) {
				start := pm.Thread.Now()
				cov.installs++
				if pm.Timing != nil {
					arrival := start.Add(latency - pm.Timing.Transfer)
					if lastArrival[pm.Node] == arrival {
						cov.sameInstant++
					}
					lastArrival[pm.Node] = arrival
				}
				cov.killed++ // undone below unless a crash cuts the install short
				core.InstallPage(pm)
				cov.killed--
				if pm.Thread.Now().Sub(start) > d.Costs().Install {
					cov.waited++
				}
				if fr := d.Space(pm.Node).Frame(pm.Page); s.crashAt == 0 && (fr == nil || fr.Access != pm.Access) {
					cov.overtaken++
				}
			},
			OnLockAcquire: lh.LockAcquire,
			OnLockRelease: lh.LockRelease,
		}))
	} else {
		reg, ids := NewRegistry()
		d = core.New(rt, reg, core.DefaultCosts())
		d.SetDefaultProtocol(ids.LiHudak)
	}
	eng := rt.Engine()
	if s.crashAt > 0 {
		rt.EnableFaults(1)
		d.EnableRecovery(nil)
		eng.Schedule(sim.Time(s.crashAt), func() { d.CrashNode(s.crashNode) })
		if s.restartAfter > 0 {
			eng.Schedule(sim.Time(s.crashAt+s.restartAfter), func() { d.RestartNode(s.crashNode) })
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
