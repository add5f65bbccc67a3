package pm2

import (
	"fmt"
	"math"
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

func newRT(nodes int, prof madeleine.Topology) *Runtime {
	return NewRuntime(Config{Nodes: nodes, Network: prof, Seed: 1})
}

func TestThreadRunsOnNode(t *testing.T) {
	rt := newRT(2, nil)
	var node int
	rt.CreateThread(1, "w", func(th *Thread) { node = th.Node() })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if node != 1 {
		t.Fatalf("thread saw node %d, want 1", node)
	}
}

func TestComputeChargesNodeCPU(t *testing.T) {
	rt := newRT(1, nil)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		rt.CreateThread(0, fmt.Sprintf("w%d", i), func(th *Thread) {
			th.Compute(10 * sim.Microsecond)
			done = append(done, th.Now())
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] != sim.Time(10*sim.Microsecond) || done[1] != sim.Time(20*sim.Microsecond) {
		t.Fatalf("single-CPU node did not serialize compute: %v", done)
	}
}

func TestMigrationCostMatchesPaper(t *testing.T) {
	// Section 2.1: migrating a thread with minimal stack takes 75us over
	// BIP/Myrinet and 62us over SISCI/SCI.
	cases := []struct {
		prof *madeleine.Profile
		us   int
	}{
		{madeleine.BIPMyrinet, 75},
		{madeleine.SISCISCI, 62},
	}
	for _, c := range cases {
		rt := newRT(2, c.prof)
		var took sim.Duration
		rt.CreateThreadStack(0, "mig", 1024, func(th *Thread) {
			start := th.Now()
			th.MigrateTo(1)
			took = th.Now().Sub(start)
			if th.Node() != 1 {
				t.Errorf("thread did not move")
			}
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if got := int(math.Round(took.Microseconds())); got != c.us {
			t.Errorf("%s: migration took %dus, want %dus", c.prof.Name, got, c.us)
		}
	}
}

func TestMigrationCostGrowsWithStack(t *testing.T) {
	rt := newRT(2, madeleine.BIPMyrinet)
	var small, big sim.Duration
	rt.CreateThreadStack(0, "small", 1024, func(th *Thread) {
		s := th.Now()
		th.MigrateTo(1)
		small = th.Now().Sub(s)
	})
	rt.CreateThreadStack(0, "big", 64*1024, func(th *Thread) {
		s := th.Now()
		th.MigrateTo(1)
		big = th.Now().Sub(s)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("64KiB-stack migration (%v) not slower than 1KiB (%v)", big, small)
	}
}

func TestMigrateToSelfIsFree(t *testing.T) {
	rt := newRT(2, nil)
	rt.CreateThread(0, "w", func(th *Thread) {
		th.MigrateTo(0)
		if th.Now() != 0 || th.Migrations() != 0 {
			t.Error("self-migration charged time or counted")
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationStats(t *testing.T) {
	rt := newRT(3, nil)
	rt.CreateThread(0, "w", func(th *Thread) {
		th.MigrateTo(1)
		th.MigrateTo(2)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.Node(0).MigrationsOut != 1 || rt.Node(1).MigrationsIn != 1 ||
		rt.Node(1).MigrationsOut != 1 || rt.Node(2).MigrationsIn != 1 {
		t.Fatal("migration stats wrong")
	}
}

func TestNullRPCLatency(t *testing.T) {
	// Section 2.1: minimal RPC latency is 6us over SISCI/SCI and 8us over
	// BIP/Myrinet.
	cases := []struct {
		prof *madeleine.Profile
		us   int
	}{
		{madeleine.SISCISCI, 6},
		{madeleine.BIPMyrinet, 8},
	}
	for _, c := range cases {
		rt := newRT(2, c.prof)
		rt.Node(1).Register("null", false, func(h *Thread, arg interface{}) interface{} {
			return nil
		})
		var took sim.Duration
		rt.CreateThread(0, "caller", func(th *Thread) {
			start := th.Now()
			th.Call(1, "null", nil, 0, 0)
			took = th.Now().Sub(start)
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		if got := int(math.Round(took.Microseconds())); got != c.us {
			t.Errorf("%s: null RPC took %dus, want %dus", c.prof.Name, got, c.us)
		}
	}
}

func TestRPCCarriesValues(t *testing.T) {
	rt := newRT(2, nil)
	rt.Node(1).Register("double", false, func(h *Thread, arg interface{}) interface{} {
		return arg.(int) * 2
	})
	var got int
	rt.CreateThread(0, "caller", func(th *Thread) {
		got = th.Call(1, "double", 21, 8, 8).(int)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("RPC result = %d, want 42", got)
	}
}

func TestRPCHandlerRunsOnDestNode(t *testing.T) {
	rt := newRT(2, nil)
	var handlerNode int
	rt.Node(1).Register("where", true, func(h *Thread, arg interface{}) interface{} {
		handlerNode = h.Node()
		return nil
	})
	rt.CreateThread(0, "caller", func(th *Thread) {
		th.Call(1, "where", nil, 0, 0)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if handlerNode != 1 {
		t.Fatalf("handler ran on node %d, want 1", handlerNode)
	}
}

func TestThreadedHandlersConcurrent(t *testing.T) {
	rt := newRT(2, nil)
	rt.Node(1).Register("slow", true, func(h *Thread, arg interface{}) interface{} {
		h.Advance(100 * sim.Microsecond) // latency, not CPU
		return nil
	})
	var done []sim.Time
	for i := 0; i < 3; i++ {
		rt.CreateThread(0, fmt.Sprintf("c%d", i), func(th *Thread) {
			th.Call(1, "slow", nil, 0, 0)
			done = append(done, th.Now())
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Threaded handlers overlap: all three calls finish at the same time.
	for _, d := range done {
		if d != done[0] {
			t.Fatalf("threaded handlers serialized: %v", done)
		}
	}
	if rt.Node(1).HandlersSpawned != 3 {
		t.Fatalf("handlers spawned = %d, want 3", rt.Node(1).HandlersSpawned)
	}
}

// TestServerThreadSerializes: a non-threaded (serial) service runs its
// requests one at a time, the second on the thread of the first.
func TestServerThreadSerializes(t *testing.T) {
	rt := newRT(2, nil)
	rt.Node(1).Register("slow", false, func(h *Thread, arg interface{}) interface{} {
		h.Advance(100 * sim.Microsecond)
		return nil
	})
	var done []sim.Time
	for i := 0; i < 2; i++ {
		rt.CreateThread(0, fmt.Sprintf("c%d", i), func(th *Thread) {
			th.Call(1, "slow", nil, 0, 0)
			done = append(done, th.Now())
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if done[0] == done[1] {
		t.Fatalf("serial handlers overlapped: %v", done)
	}
}

func TestAsyncDoesNotBlock(t *testing.T) {
	rt := newRT(2, nil)
	served := false
	rt.Node(1).Register("note", false, func(h *Thread, arg interface{}) interface{} {
		served = true
		return nil
	})
	var sentAt sim.Time
	rt.CreateThread(0, "caller", func(th *Thread) {
		th.Async(1, "note", nil, 16)
		sentAt = th.Now()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt != 0 {
		t.Fatalf("async send blocked until %v", sentAt)
	}
	if !served {
		t.Fatal("async request never served")
	}
}

func TestDuplicateServicePanics(t *testing.T) {
	rt := newRT(1, nil)
	rt.Node(0).Register("svc", false, func(h *Thread, arg interface{}) interface{} { return nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	rt.Node(0).Register("svc", false, func(h *Thread, arg interface{}) interface{} { return nil })
}

func TestJoin(t *testing.T) {
	rt := newRT(1, nil)
	var order []string
	worker := rt.CreateThread(0, "worker", func(th *Thread) {
		th.Advance(50 * sim.Microsecond)
		order = append(order, "worker")
	})
	rt.CreateThread(0, "main", func(th *Thread) {
		th.Join(worker)
		order = append(order, "main")
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "worker" {
		t.Fatalf("join ordering = %v", order)
	}
}

func TestJoinFinishedThread(t *testing.T) {
	rt := newRT(1, nil)
	worker := rt.CreateThread(0, "worker", func(th *Thread) {})
	rt.CreateThread(0, "main", func(th *Thread) {
		th.Advance(100 * sim.Microsecond)
		th.Join(worker) // already done; must not block
		if !worker.Done() {
			t.Error("worker not done")
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBadNodePanics(t *testing.T) {
	rt := newRT(2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("CreateThread on bad node did not panic")
		}
	}()
	rt.CreateThread(7, "w", func(th *Thread) {})
}
