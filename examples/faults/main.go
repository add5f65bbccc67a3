// Command faults walks through the fault-injection and recovery subsystem:
// the same deterministic platform that replays the paper's latencies can
// kill nodes, partition links and lose messages mid-run — and, because the
// whole simulation is driven by seeds, replay the exact same disaster as
// many times as it takes to understand it.
//
// The walkthrough runs the restart-aware Jacobi kernel (all grid rows homed
// on the protected node 0 under home-based release consistency) against a
// fault plan that crashes two worker nodes mid-computation, partitions the
// two halves of the cluster for a while, and restarts the dead nodes. The
// run still produces the sequentially-correct answer: committed iterations
// live on the protected home, restarted workers rejoin at the barrier
// generation the cluster is in and redo at most the one iteration whose
// flush the crash interrupted.
//
// Run with:
//
//	go run ./examples/faults
package main

import (
	"fmt"
	"log"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
)

func main() {
	const (
		nodes = 8
		n     = 24 // grid dimension
		iters = 8
	)

	// A declarative fault plan. Times are offsets from the start of the
	// compute phase; the plan's seed drives any probabilistic loss, so the
	// same plan + the same simulation seed replays bit-identically.
	ms := func(v int) dsmpm2.Time { return dsmpm2.Time(v) * dsmpm2.Time(dsmpm2.Millisecond) }
	plan := dsmpm2.NewFaultPlan(11)
	plan.Crash(ms(2), 3)        // node 3 fail-stops 2ms in...
	plan.Restart(ms(9), 3)      // ...and comes back cold at 9ms
	plan.Crash(ms(4), 6)        // node 6 dies while 3 is still down
	plan.Restart(ms(12), 6)     //
	plan.Partition(ms(6), 1, 5) // links 1<->5 cut for 2ms; queued traffic
	plan.Heal(ms(8), 1, 5)      // is delivered FIFO when the link heals

	res, err := jacobi.Run(jacobi.Config{
		N: n, Iterations: iters, Nodes: nodes,
		Network:   dsmpm2.BIPMyrinet,
		Protocol:  "hbrc_mw", // home-based: committed data survives on node 0
		Seed:      7,
		FaultPlan: plan,
	})
	if err != nil {
		log.Fatal(err)
	}

	want := jacobi.SolveSerial(n, iters)
	fmt.Printf("checksum: %v (sequential oracle %v, correct=%v)\n",
		res.Checksum, want, res.Checksum == want)
	fmt.Printf("virtual time: %.2f ms\n", float64(res.Elapsed)/1e6)

	fs, rs := res.Faults, res.Recovery
	fmt.Printf("\nfault layer:   %d crashes, %d restarts, %d messages dropped at dead nodes,\n",
		fs.Crashes, fs.Restarts, fs.DeadDrops)
	fmt.Printf("               %d held on partitioned links (%.0f us of partition delay),\n",
		fs.Held, fs.HeldTime.Microseconds())
	fmt.Printf("               %d lost transmissions retransmitted\n", fs.Retransmits)
	fmt.Printf("recovery:      %d pages re-homed, %d lost\n", rs.ReHomed, rs.Lost)

	// Replays are bit-identical: run it again and compare the clocks.
	again, err := jacobi.Run(jacobi.Config{
		N: n, Iterations: iters, Nodes: nodes,
		Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: 7,
		FaultPlan: plan,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplay elapsed: %.2f ms (identical=%v)\n",
		float64(again.Elapsed)/1e6, again.Elapsed == res.Elapsed)

	fmt.Println("\nThe same experiment is scriptable as:")
	fmt.Println("  go run ./cmd/dsmbench -exp faults -nodes 16 -clusters 2 -mtbf 10 -json")
}
