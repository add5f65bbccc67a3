package core

import (
	"fmt"
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

func newShardedDSM(nodes, shards int) *DSM {
	rt := pm2.NewRuntime(pm2.Config{
		Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 1, Shards: shards,
	})
	return New(rt, NewRegistry(), DefaultCosts())
}

func TestBarTreeShape(t *testing.T) {
	d := newShardedDSM(16, 4)
	if d.tree == nil {
		t.Fatal("sharded DSM built no combining tree")
	}
	wantLeaders := []int{0, 4, 8, 12}
	for s, want := range wantLeaders {
		if got := d.tree.leaders[s]; got != want {
			t.Errorf("leader[%d] = %d, want %d", s, got, want)
		}
	}
	if d.tree.parent[0] != -1 {
		t.Errorf("root parent = %d, want -1", d.tree.parent[0])
	}
	for s := 1; s < 4; s++ {
		if d.tree.parent[s] != 0 {
			t.Errorf("parent[%d] = %d, want 0", s, d.tree.parent[s])
		}
	}
	if got, want := fmt.Sprint(d.tree.children[0]), "[1 2 3]"; got != want {
		t.Errorf("children[0] = %s, want %s", got, want)
	}
	for n := 0; n < 16; n++ {
		if got, want := d.tree.leaderOf[n], (n/4)*4; got != want {
			t.Errorf("leaderOf[%d] = %d, want %d", n, got, want)
		}
	}
	// Deeper tree: with 8 shards, shards 1-4 hang off the root and 5-7 off
	// shard 1 (fan-in 4 over shard indices).
	d8 := newShardedDSM(16, 8)
	if got, want := fmt.Sprint(d8.tree.children[0]), "[1 2 3 4]"; got != want {
		t.Errorf("8-shard children[0] = %s, want %s", got, want)
	}
	if got, want := fmt.Sprint(d8.tree.children[1]), "[5 6 7]"; got != want {
		t.Errorf("8-shard children[1] = %s, want %s", got, want)
	}
	// Single-loop machines build no tree and stay on the flat barrier.
	if newDSM(4).tree != nil {
		t.Error("single-loop DSM built a combining tree")
	}
}

// TestTreeBarrierShuffledArrivals drives a cluster-wide barrier through
// several generations under different arrival orders: each permutation skews
// every node's pre-arrival delay differently, so arrivals hit leaders — and
// leader batches hit the root — in a different sequence each time. Whatever
// the order, every generation must complete exactly once, every node must
// observe every other node's pre-barrier write afterwards (the memory
// semantics the barrier exists for), and no combining residue may remain.
func TestTreeBarrierShuffledArrivals(t *testing.T) {
	const nodes, gens = 8, 5
	for perm := 0; perm < 4; perm++ {
		d := newShardedDSM(nodes, 4)
		rt := d.Runtime()
		id := d.NewBarrier(nodes)
		if !d.useTree(d.barriers[id]) {
			t.Fatal("cluster-wide barrier on a sharded machine did not route through the tree")
		}
		counts := make([]int, nodes)
		errs := make([]error, nodes)
		for n := 0; n < nodes; n++ {
			n := n
			// Skew arrival order: node n waits ((n*7+perm*3) mod nodes)
			// microseconds longer each generation, a different total order
			// per permutation.
			skew := sim.Duration((n*7+perm*3)%nodes) * sim.Microsecond
			rt.CreateThread(n, fmt.Sprintf("w%d", n), func(th *pm2.Thread) {
				for g := 0; g < gens; g++ {
					th.Advance(skew)
					counts[n]++
					d.Barrier(th, id)
					for j := 0; j < nodes; j++ {
						if counts[j] != g+1 {
							errs[n] = fmt.Errorf("gen %d: node %d saw counts[%d]=%d, want %d",
								g, n, j, counts[j], g+1)
							return
						}
					}
					// Second barrier: nobody starts generation g+1's writes
					// until everyone finished reading generation g's.
					d.Barrier(th, id)
				}
			})
		}
		if err := rt.Run(); err != nil {
			t.Fatalf("perm %d: %v", perm, err)
		}
		for n, err := range errs {
			if err != nil {
				t.Errorf("perm %d node %d: %v", perm, n, err)
			}
		}
		if got := d.BarrierGen(id); got != 2*gens {
			t.Errorf("perm %d: barrier generation %d, want %d", perm, got, 2*gens)
		}
		if got := d.Stats().Barriers; got != int64(2*nodes*gens) {
			t.Errorf("perm %d: Barriers stat %d, want %d", perm, got, 2*nodes*gens)
		}
		if err := d.TreeBarrierResidue(); err != nil {
			t.Errorf("perm %d: residue after quiesce: %v", perm, err)
		}
	}
}

// TestSubsetBarrierStaysFlatUnderSharding: a barrier with fewer participants
// than nodes cannot combine per cluster (completion depends on the arrival
// count alone), so it must keep the flat path — and still work across shards.
func TestSubsetBarrierStaysFlatUnderSharding(t *testing.T) {
	d := newShardedDSM(8, 4)
	rt := d.Runtime()
	id := d.NewBarrier(3)
	if d.useTree(d.barriers[id]) {
		t.Fatal("subset barrier routed through the tree")
	}
	done := make([]bool, 8)
	for _, n := range []int{0, 3, 7} { // one per distant shard
		n := n
		rt.CreateThread(n, fmt.Sprintf("s%d", n), func(th *pm2.Thread) {
			d.Barrier(th, id)
			done[n] = true
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 7} {
		if !done[n] {
			t.Fatalf("participant on node %d did not finish", n)
		}
	}
	if d.BarrierGen(id) != 1 {
		t.Fatalf("generation %d, want 1", d.BarrierGen(id))
	}
}

// TestTreeBarrierShardedPoisoned reruns the sharded barrier tests with the
// use-after-free net on (see PoisonFreed).
func TestTreeBarrierShardedPoisoned(t *testing.T) {
	PoisonFreed = true
	defer func() { PoisonFreed = false }()
	t.Run("shuffled", TestTreeBarrierShuffledArrivals)
	t.Run("subset", TestSubsetBarrierStaysFlatUnderSharding)
}
