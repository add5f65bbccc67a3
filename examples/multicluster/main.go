// Command multicluster runs the same protocol stack the paper calibrates on
// uniform clusters over a heterarchical machine the paper only gestures at:
// two SCI clusters joined by a TCP/Fast Ethernet backbone. The read-fault
// cost now depends on which link the page crosses — faults served inside a
// cluster stay at SCI latency while faults crossing the backbone pay the
// Ethernet price — without a single change to the li_hudak protocol.
//
// Run with:
//
//	go run ./examples/multicluster
package main

import (
	"fmt"
	"log"

	"dsmpm2"
)

func main() {
	const nodes = 6 // two clusters of three: {0,1,2} and {3,4,5}
	topo := dsmpm2.HierarchicalTopology(
		dsmpm2.EvenClusters(nodes, 2),
		dsmpm2.SISCISCI,        // fast links inside each cluster
		dsmpm2.TCPFastEthernet, // slow backbone between clusters
	)
	sys, err := dsmpm2.New(dsmpm2.Config{
		Nodes:    nodes,
		Network:  topo,
		Protocol: "li_hudak",
	})
	if err != nil {
		log.Fatal(err)
	}

	// One page per reader, all homed on node 0 in the first cluster, so
	// each fault is an independent transfer from node 0 to the reader.
	for r := 1; r < nodes; r++ {
		page := sys.MustMalloc(0, dsmpm2.PageSize, nil)
		sys.Spawn(r, fmt.Sprintf("reader%d", r), func(t *dsmpm2.Thread) {
			t.ReadUint64(page)
		})
	}
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("topology: %s\n", topo)
	fmt.Printf("%-20s %8s %18s\n", "link class", "faults", "mean total (us)")
	var intraUS, interUS float64
	for _, s := range sys.Timings().ByLink() {
		if s.Link == "" {
			continue
		}
		us := s.MeanTotal.Microseconds()
		fmt.Printf("%-20s %8d %18.0f\n", s.Link, s.Count, us)
		switch s.Link {
		case dsmpm2.SISCISCI.Name:
			intraUS = us
		case dsmpm2.TCPFastEthernet.Name:
			interUS = us
		}
	}
	if intraUS > 0 && interUS > 0 {
		fmt.Printf("crossing the backbone costs %.1fx an intra-cluster fault\n", interUS/intraUS)
	}
}
