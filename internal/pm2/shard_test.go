package pm2

import (
	"fmt"
	"strings"
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// shardedRT builds a 2-cluster, 4-node machine sharded along its cluster
// boundaries (nodes 0,1 on shard 0; nodes 2,3 on shard 1).
func shardedRT(seed int64) *Runtime {
	cluster := madeleine.EvenClusters(4, 2)
	return NewRuntime(Config{
		Nodes:    4,
		Topology: madeleine.NewHierarchical(cluster, madeleine.BIPMyrinet, madeleine.TCPFastEthernet),
		Shards:   2,
		Seed:     seed,
	})
}

// runShardedRPC exercises synchronous cross-shard RPC: every node registers
// an "echo" service, and one client thread per node calls its cross-cluster
// peer several times. Returns a trace of call completions per node.
func runShardedRPC(t *testing.T, seed int64) ([]string, error) {
	t.Helper()
	rt := shardedRT(seed)
	for n := 0; n < 4; n++ {
		n := n
		rt.Node(n).Register("echo", true, func(h *Thread, arg interface{}) interface{} {
			h.Compute(sim.Micros(3))
			return arg.(int) * 10
		})
	}
	traces := make([]string, 4)
	for n := 0; n < 4; n++ {
		n := n
		rt.CreateThread(n, fmt.Sprintf("client%d", n), func(th *Thread) {
			var sb strings.Builder
			peer := (n + 2) % 4
			for i := 0; i < 5; i++ {
				got := th.Call(peer, "echo", n*100+i, 64, 64)
				fmt.Fprintf(&sb, "%v=%v;", th.Now(), got)
				if got.(int) != (n*100+i)*10 {
					t.Errorf("node %d call %d: got %v", n, i, got)
				}
			}
			traces[n] = sb.String()
		})
	}
	return traces, rt.Run()
}

// TestShardedRPCCompletes: synchronous RPC across the shard boundary works
// in both directions and repeated runs replay identically.
func TestShardedRPCCompletes(t *testing.T) {
	base, err := runShardedRPC(t, 42)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for trial := 0; trial < 3; trial++ {
		got, err := runShardedRPC(t, 42)
		if err != nil {
			t.Fatalf("trial %d Run: %v", trial, err)
		}
		for n := range got {
			if got[n] != base[n] {
				t.Fatalf("trial %d node %d trace diverged:\n%s\nvs\n%s", trial, n, got[n], base[n])
			}
		}
	}
}

// TestShardedVectorRPC: a multi-part vector invocation crossing the
// backbone fans out on the destination shard and coalesces one reply.
func TestShardedVectorRPC(t *testing.T) {
	rt := shardedRT(7)
	rt.Node(2).Register("inc", true, func(h *Thread, arg interface{}) interface{} {
		return arg.(int) + 1
	})
	var res []interface{}
	rt.CreateThread(0, "caller", func(th *Thread) {
		res = callVec(th, 2, []VecElem{
			{Svc: "inc", Arg: 10, Size: 64},
			{Svc: "inc", Arg: 20, Size: 64},
			{Svc: "inc", Arg: 30, Size: 64},
		}, 64)
	})
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []interface{}{11, 21, 31}
	if len(res) != len(want) {
		t.Fatalf("results = %v, want %v", res, want)
	}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("results = %v, want %v", res, want)
		}
	}
}

// TestShardedThreadIDsDeterministic: thread ids are striped per shard, so
// they do not depend on cross-shard wall-clock interleaving.
func TestShardedThreadIDsDeterministic(t *testing.T) {
	collect := func() ([4]int, [4]int) {
		rt := shardedRT(1)
		var workerIDs, childIDs [4]int // per-node slots, each written by one shard
		for n := 0; n < 4; n++ {
			n := n
			w := rt.CreateThread(n, fmt.Sprintf("w%d", n), func(th *Thread) {
				// Spawn a child mid-run: its id must come from the node's
				// shard counter, not a global one.
				child := rt.CreateThread(n, fmt.Sprintf("c%d", n), func(*Thread) {})
				childIDs[n] = child.ID()
				th.Join(child)
			})
			workerIDs[n] = w.ID()
		}
		if err := rt.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return workerIDs, childIDs
	}
	w1, c1 := collect()
	w2, c2 := collect()
	if w1 != w2 || c1 != c2 {
		t.Fatalf("thread ids changed across runs: %v/%v vs %v/%v", w1, c1, w2, c2)
	}
	// Stripes: shard 0 (nodes 0,1) hands out ids ≡ 1 (mod 2), shard 1
	// (nodes 2,3) ids ≡ 0 (mod 2).
	for n := 0; n < 4; n++ {
		wantParity := 1
		if n >= 2 {
			wantParity = 0
		}
		if w1[n]%2 != wantParity || c1[n]%2 != wantParity {
			t.Fatalf("node %d ids %d/%d on wrong stripe", n, w1[n], c1[n])
		}
	}
}

// TestShardedFaultPlanKillsAndRestarts: a crash/restart plan on a sharded
// machine kills the owning shard's threads at the crash time, drops traffic
// to the dead node machine-wide, and reconnects the services at restart.
func TestShardedFaultPlanKillsAndRestarts(t *testing.T) {
	rt := shardedRT(3)
	rt.EnableFaults(1, madeleine.PartitionQueue)
	served := 0
	rt.Node(2).Register("work", true, func(h *Thread, arg interface{}) interface{} {
		served++
		return nil
	})
	crashAt := sim.Time(0).Add(sim.Micros(3000))
	restartAt := sim.Time(0).Add(sim.Micros(6000))
	rt.InjectFaultPlan((&sim.FaultPlan{Seed: 1}).Crash(crashAt, 2).Restart(restartAt, 2))

	// A long-lived victim thread on node 2 that would run past the crash.
	victimDone := false
	rt.CreateThread(2, "victim", func(th *Thread) {
		th.Advance(sim.Micros(20000))
		victimDone = true
	})
	// A client on shard 0 fires one-way work at node 2 every ms for 10ms.
	rt.CreateThread(0, "client", func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Advance(sim.Micros(1000))
			th.Async(2, "work", i, 64)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if victimDone {
		t.Fatal("victim thread on the crashed node ran to completion")
	}
	if rt.Node(2).Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rt.Node(2).Restarts)
	}
	st := rt.Network().FaultStats()
	if st.Crashes != 1 || st.DeadDrops == 0 {
		t.Fatalf("fault stats %+v: want 1 crash and >0 dead drops", st)
	}
	// Requests sent before the crash and after the restart are served.
	if served == 0 {
		t.Fatal("no requests served at all")
	}
	if served >= 10 {
		t.Fatalf("served = %d, want < 10 (crash window must drop some)", served)
	}
}

// TestShardedCrossShardMigrationPanics: preemptive migration cannot cross a
// shard boundary.
func TestShardedCrossShardMigrationPanics(t *testing.T) {
	rt := shardedRT(5)
	panicked := false
	rt.CreateThread(0, "mover", func(th *Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		th.MigrateTo(2)
	})
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !panicked {
		t.Fatal("cross-shard MigrateTo did not panic")
	}
}

// TestShardedIntraShardMigrationWorks: migration between nodes of one shard
// still works and charges the migration latency.
func TestShardedIntraShardMigrationWorks(t *testing.T) {
	rt := shardedRT(5)
	rt.CreateThread(0, "mover", func(th *Thread) {
		before := th.Now()
		th.MigrateTo(1)
		if th.Node() != 1 || th.Now() <= before {
			t.Errorf("migration did not move/charge: node=%d dt=%v", th.Node(), th.Now().Sub(before))
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestShardedBalancerPanics: the machine-wide load balancer is rejected on
// sharded machines.
func TestShardedBalancerPanics(t *testing.T) {
	rt := shardedRT(5)
	defer func() {
		if recover() == nil {
			t.Fatal("StartBalancer on a sharded machine did not panic")
		}
	}()
	rt.StartBalancer(sim.Millisecond)
}
