package mapcolor

import (
	"testing"

	"dsmpm2"
)

func TestAdjacencySymmetric(t *testing.T) {
	if len(adjacency) != len(States) {
		t.Fatalf("adjacency has %d entries for %d states", len(adjacency), len(States))
	}
	for s, nbs := range adjacency {
		for _, nb := range nbs {
			if nb == s {
				t.Fatalf("%s adjacent to itself", States[s])
			}
			found := false
			for _, back := range adjacency[nb] {
				if back == s {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %s -> %s but not back", States[s], States[nb])
			}
		}
	}
}

func TestTwentyNineStates(t *testing.T) {
	if len(States) != 29 {
		t.Fatalf("have %d states, the paper colors 29", len(States))
	}
}

func TestSerialSolverFindsValidOptimum(t *testing.T) {
	best := SolveSerial()
	// Lower bound: every state costs at least the cheapest color.
	if best < len(States)*ColorCosts[0] {
		t.Fatalf("optimum %d below trivial lower bound", best)
	}
	// Upper bound: every state at the most expensive color.
	if best > len(States)*ColorCosts[NumColors-1] {
		t.Fatalf("optimum %d above trivial upper bound", best)
	}
}

func TestParallelMatchesSerialBothJavaProtocols(t *testing.T) {
	want := SolveSerial()
	hier := dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet)
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"java_ic", Config{Protocol: "java_ic"}},
		{"java_pf", Config{Protocol: "java_pf"}},
		{"java_pf/hier", Config{Protocol: "java_pf", Network: hier}},
	} {
		row.cfg.Nodes, row.cfg.ThreadsPerNode, row.cfg.Seed = 4, 1, 5
		res, err := Run(row.cfg)
		if err != nil {
			t.Fatalf("[%s] %v", row.name, err)
		}
		if res.BestCost != want {
			t.Errorf("[%s] best = %d, want %d", row.name, res.BestCost, want)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	// Figure 5: java_pf outperforms java_ic, because every get and put
	// pays a locality check under java_ic while local accesses are free
	// under java_pf.
	pf, err := Run(Config{Nodes: 4, ThreadsPerNode: 1, Protocol: "java_pf", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := Run(Config{Nodes: 4, ThreadsPerNode: 1, Protocol: "java_ic", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if pf.Elapsed >= ic.Elapsed {
		t.Fatalf("java_pf (%v) not faster than java_ic (%v); Figure 5 shape broken",
			pf.Elapsed, ic.Elapsed)
	}
	// And the reason: ic paid zero faults but pf fetched via rare faults.
	if ic.Stats.ReadFaults+ic.Stats.WriteFaults != 0 {
		t.Errorf("java_ic took %d page faults, want 0",
			ic.Stats.ReadFaults+ic.Stats.WriteFaults)
	}
	if pf.Stats.ObjFetches != 0 {
		t.Errorf("java_pf did %d inline-check fetches, want 0", pf.Stats.ObjFetches)
	}
}

func TestMapcolorWorksUnderNonObjectProtocol(t *testing.T) {
	// The object API falls back to the paged path, so the same program
	// runs under li_hudak too.
	want := SolveSerial()
	res, err := Run(Config{Nodes: 2, ThreadsPerNode: 1, Protocol: "li_hudak", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestCost != want {
		t.Fatalf("li_hudak mapcolor best = %d, want %d", res.BestCost, want)
	}
}

func TestMapcolorBadConfig(t *testing.T) {
	if _, err := Run(Config{Nodes: 0}); err == nil {
		t.Error("0-node run accepted")
	}
	if _, err := Run(Config{Nodes: 1, Protocol: "nope"}); err == nil {
		t.Error("unknown protocol accepted")
	}
}
