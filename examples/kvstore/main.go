// Command kvstore walks through the serving-scale workload: a key/value
// store sharded over shared pages (one bucket per page, guarded by a
// per-bucket entry-consistency lock), driven by an open-loop trace of
// Zipf-skewed requests with Poisson arrivals and a mid-run hot-key churn.
//
// Where the SPLASH-style examples report a checksum and an elapsed time,
// the interesting output here is the latency distribution: every request's
// completion time relative to its scheduled arrival lands in a fixed-grid
// histogram (dsmpm2.Histogram), so the p50/p95/p99 shown below are
// deterministic — run the example twice and the numbers are bit-identical.
//
// The demo serves the same trace twice from a deliberately bad placement
// (every bucket homed on node 0):
//
//   - static: the placement is frozen; every acquire by nodes 1..3 fetches
//     the bucket page across the wire, the servers saturate, and the open
//     loop piles queueing delay into the tail;
//   - adaptive: the sharing-pattern profiler re-homes each bucket onto its
//     serving node at the epoch barriers, the hot buckets turn local
//     mid-run, and the tail collapses.
//
// Run with:
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"

	"dsmpm2"
	"dsmpm2/internal/apps/kvstore"
)

func run(adaptive bool) kvstore.Result {
	res, err := kvstore.Run(kvstore.Config{
		Nodes:         4,
		Buckets:       16,
		Keys:          512,
		Requests:      1600,
		Epochs:        8,
		Phases:        2, // the hot set moves once, mid-trace
		Seed:          11,
		MisplaceHomes: true,
		AdaptiveHomes: adaptive,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	static := run(false)
	adaptive := run(true)

	// Both runs must agree with the serial last-put-wins oracle: per-key
	// requests serialize through one bucket lock on one server queue.
	oracle, hot, err := kvstore.ServeSerial(kvstore.Config{
		Nodes: 4, Buckets: 16, Keys: 512, Requests: 1600,
		Epochs: 8, Phases: 2, Seed: 11, MisplaceHomes: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []kvstore.Result{static, adaptive} {
		if r.Checksum != oracle {
			log.Fatalf("checksum %#x does not match the serial oracle %#x", r.Checksum, oracle)
		}
	}

	us := func(d dsmpm2.Duration) float64 { return float64(d) / 1e3 }
	fmt.Println("placement  op        count    p50(us)    p95(us)    p99(us)")
	for _, row := range []struct {
		name string
		res  kvstore.Result
	}{{"static", static}, {"adaptive", adaptive}} {
		for _, o := range row.res.Ops {
			fmt.Printf("%-10s %-6s %8d %10.1f %10.1f %10.1f\n",
				row.name, o.Kind, o.Count, us(o.P50), us(o.P95), us(o.P99))
		}
	}
	fmt.Printf("\nhot keys (trace tally): %v\n", hot)
	fmt.Printf("home migrations: %d (static: %d)\n",
		adaptive.Stats.HomeMigrations, static.Stats.HomeMigrations)
	fmt.Printf("get p99: static %.1fus -> adaptive %.1fus\n",
		us(static.Op("get").P99), us(adaptive.Op("get").P99))
	fmt.Println("\nThe adaptive run serves the identical trace; only page placement moved.")
	fmt.Println("Every number above is virtual-time exact and replays bit-identically.")
}
