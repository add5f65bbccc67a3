package dsmpm2_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"slices"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
)

func TestFacadeConditionVariables(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Protocol: "li_hudak"})
	flag := sys.MustMalloc(0, 8, nil)
	lock := sys.NewLock(0)
	cond := sys.NewCond(lock)
	var got uint64
	sys.Spawn(1, "waiter", func(th *dsmpm2.Thread) {
		th.Acquire(lock)
		for th.ReadUint64(flag) == 0 {
			th.CondWait(cond)
		}
		got = th.ReadUint64(flag)
		th.Release(lock)
	})
	sys.Spawn(0, "setter", func(th *dsmpm2.Thread) {
		th.Sleep(5 * dsmpm2.Millisecond)
		th.Acquire(lock)
		th.WriteUint64(flag, 9)
		th.CondBroadcast(cond)
		th.Release(lock)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("waiter saw %d, want 9", got)
	}
}

func TestFacadeEntryConsistency(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 3, Protocol: "entry_mw"})
	area := sys.MustMalloc(0, 8, nil)
	lock := sys.NewLock(0)
	sys.BindLock(lock, area, 8)
	for n := 0; n < 3; n++ {
		sys.Spawn(n, "w", func(th *dsmpm2.Thread) {
			for i := 0; i < 5; i++ {
				th.Acquire(lock)
				th.WriteUint64(area, th.ReadUint64(area)+1)
				th.Release(lock)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	sys.Spawn(2, "r", func(th *dsmpm2.Thread) {
		th.Acquire(lock)
		got = th.ReadUint64(area)
		th.Release(lock)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 15 {
		t.Fatalf("entry-consistent counter = %d, want 15", got)
	}
}

func TestFacadeSwitchProtocol(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Protocol: "li_hudak"})
	area := sys.MustMalloc(0, 8, nil)
	lock := sys.NewLock(0)
	sys.Spawn(0, "switcher", func(th *dsmpm2.Thread) {
		th.Acquire(lock)
		th.WriteUint64(area, 5)
		th.Release(lock)
		if err := th.SwitchProtocol(area, 8, "hbrc_mw"); err != nil {
			t.Errorf("switch: %v", err)
		}
		if err := th.SwitchProtocol(area, 8, "no_such_proto"); err == nil {
			t.Error("unknown protocol accepted")
		}
		th.Acquire(lock)
		th.WriteUint64(area, th.ReadUint64(area)+1)
		th.Release(lock)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	sys.Spawn(1, "r", func(th *dsmpm2.Thread) {
		th.Acquire(lock)
		got = th.ReadUint64(area)
		th.Release(lock)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("value after switch = %d, want 6", got)
	}
}

func TestFacadeLoadBalancerIntegration(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4})
	var workers []*dsmpm2.Thread
	for i := 0; i < 8; i++ {
		w := sys.Spawn(0, "w", func(th *dsmpm2.Thread) {
			for c := 0; c < 20; c++ {
				th.Compute(dsmpm2.Millisecond)
			}
		})
		w.PM2().SetMigratable(true)
		workers = append(workers, w)
	}
	b := sys.Runtime().StartBalancer(500 * dsmpm2.Microsecond)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if b.Moves == 0 {
		t.Fatal("balancer idle on an 8:0:0:0 load")
	}
	spread := map[int]bool{}
	for _, w := range workers {
		spread[w.Node()] = true
	}
	if len(spread) < 3 {
		t.Fatalf("workers ended on %d nodes only", len(spread))
	}
}

func TestAppDeterministicReplay(t *testing.T) {
	run := func() (int64, int64) {
		sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 3, Protocol: "hbrc_mw", Seed: 99})
		base := sys.MustMalloc(0, 64, nil)
		lock := sys.NewLock(0)
		for n := 0; n < 3; n++ {
			sys.Spawn(n, "w", func(th *dsmpm2.Thread) {
				for i := 0; i < 15; i++ {
					th.Acquire(lock)
					a := base + dsmpm2.Addr(8*(i%8))
					th.WriteUint64(a, th.ReadUint64(a)+1)
					th.Release(lock)
				}
			})
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		st := sys.Stats()
		return int64(sys.Now()), st.PageSends + st.DiffsSent
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", t1, m1, t2, m2)
	}
}

// TestThreadHitsDoNotAllocate pins the whole access path from the facade
// down with tracing off: a present-page word access, a span hit across two
// pages and a Compute charge run without a closure, a staging buffer or a
// span, so they allocate nothing.
func TestThreadHitsDoNotAllocate(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 1})
	base := sys.MustMalloc(0, 2*dsmpm2.PageSize, nil)
	span := base + dsmpm2.PageSize - 1024 // its 2048 bytes end past the first page
	if span/dsmpm2.PageSize == (span+2047)/dsmpm2.PageSize {
		t.Fatalf("the span at %#x lies in one page", span)
	}
	buf := make([]byte, 2048)
	var reads, writes, spanReads, spanWrites, computes float64
	var hit bool
	sys.Spawn(0, "pin", func(th *dsmpm2.Thread) {
		var sum uint64
		reads = testing.AllocsPerRun(100, func() { sum += th.ReadUint64(base + 40) })
		writes = testing.AllocsPerRun(100, func() { th.WriteUint64(base+48, sum) })
		th.WriteUint64(span, 0) // a first store may fault each page writable
		th.WriteUint64(span+2040, 0)
		hit = th.ReadHit(span, buf) && th.WriteHit(span, buf)
		spanReads = testing.AllocsPerRun(100, func() { th.ReadHit(span, buf) })
		spanWrites = testing.AllocsPerRun(100, func() { th.WriteHit(span, buf) })
		computes = testing.AllocsPerRun(100, func() { th.Compute(dsmpm2.Microsecond) })
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("a span over two present pages did not hit")
	}
	if reads != 0 || writes != 0 || spanReads != 0 || spanWrites != 0 || computes != 0 {
		t.Fatalf("allocations per call with tracing off: ReadUint64 %v, WriteUint64 %v, ReadHit %v, WriteHit %v, Compute %v; want 0",
			reads, writes, spanReads, spanWrites, computes)
	}
}

// TestQueueDeliversInArrivalOrder: a thread receiving from an empty Queue
// waits for the next push and wakes at its instant, and values come out in
// the order they went in.
func TestQueueDeliversInArrivalOrder(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2})
	var q dsmpm2.Queue
	var got []int
	var pushed, received []dsmpm2.Time
	sys.Spawn(1, "server", func(th *dsmpm2.Thread) {
		for {
			v := q.Recv(th).(int)
			if v < 0 {
				return
			}
			got = append(got, v)
			received = append(received, th.Now())
		}
	})
	sys.Spawn(0, "dispatcher", func(th *dsmpm2.Thread) {
		for i := 1; i <= 3; i++ {
			th.Sleep(10 * dsmpm2.Microsecond)
			q.Push(i)
			pushed = append(pushed, th.Now())
		}
		q.Push(-1)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int{1, 2, 3}) || !slices.Equal(received, pushed) {
		t.Fatalf("received %v at %v, want [1 2 3] at the pushes' %v", got, received, pushed)
	}
}

// newAllocationBudget caps what dsmpm2.New allocates for 16 nodes. Each
// service handler is made once per DSM and shared by every node, one delivery
// sink serves every queue of the machine, each node's queues and services
// come in one block each, made once for the services the machine interns up
// front, and a handler thread's name is made at the service's first request,
// so the budget is 217 objects; a queue, a service struct and a thread name
// made one by one per (node, service) at registration made it 576, a sink per
// (node, service) and a name-keyed service map per node 863, one handler per
// (node, service) 1 062. Like panicBudget, it may only go down.
const newAllocationBudget = 217

// TestNewAllocationBudget holds a 16-node New to newAllocationBudget objects.
// Under -race the count is not held: the detector's instrumentation allocates.
func TestNewAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	n := testing.AllocsPerRun(10, func() { dsmpm2.MustNew(dsmpm2.Config{Nodes: 16}) })
	if n > newAllocationBudget {
		t.Fatalf("New for 16 nodes allocates %v objects, over the budget of %d", n, newAllocationBudget)
	}
}

// jacobiBytesBudget caps the bytes one jacobi.Run of sessionConfig (16 nodes,
// hbrc_mw) allocates on the host, taken as the least of three runs. It
// measures 776 784, where a home twins a page only once another node may hold
// a copy, a barrier generation reuses its records and each node's queues and
// services come in one block; with records made per generation and per
// service it was 801 224, and twinning at every home write fault made that
// 889 160. Like panicBudget, it may only go down.
const jacobiBytesBudget = 790_000

// TestJacobiBytesBudget holds sessionConfig's jacobi run to jacobiBytesBudget.
// Under -race the count is not held: the detector's instrumentation allocates.
func TestJacobiBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := jacobi.Run(sessionConfig()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > jacobiBytesBudget {
		t.Fatalf("the 16-node jacobi run allocates %d bytes, over the budget of %d", least, jacobiBytesBudget)
	}
	t.Logf("the 16-node jacobi run allocates %d bytes", least)
}

// TestTraceSpanLogPinned runs the 16-node jacobi with tracing on and pins the
// digest of its span log. The digest was taken before Thread's methods moved
// from a closure-taking span helper to begin/end, and must never move: span
// names, attribution (node, thread) and virtual start/end times are what
// post-mortem analysis reads.
func TestTraceSpanLogPinned(t *testing.T) {
	cfg := sessionConfig()
	cfg.Trace = true
	res, err := jacobi.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := res.System.Trace().WriteJSON(h); err != nil {
		t.Fatal(err)
	}
	const want = "9f73ff8e92159adf9308557d64bc4ae0b0ea354e75d79548848dede90826bf5d"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("span log digest = %s (%d spans), want %s", got, res.System.Trace().Len(), want)
	}
}
