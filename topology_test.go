package dsmpm2_test

import (
	"strings"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/bench"
)

// TestHierarchicalFaultCostsDiverge: under a two-cluster topology, faults
// crossing the backbone must cost measurably more than intra-cluster ones,
// and both classes must be attributed to the right link profile.
func TestHierarchicalFaultCostsDiverge(t *testing.T) {
	faults := bench.HierReadFaults(6, 2, dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet, "li_hudak")
	if len(faults) != 2 {
		t.Fatalf("expected 2 link classes, have %+v", faults)
	}
	byLink := map[string]bench.LinkFault{}
	for _, f := range faults {
		byLink[f.Link] = f
	}
	intra, ok := byLink[dsmpm2.SISCISCI.Name]
	if !ok || intra.Count != 2 {
		t.Fatalf("intra class missing or miscounted: %+v", faults)
	}
	inter, ok := byLink[dsmpm2.TCPFastEthernet.Name]
	if !ok || inter.Count != 3 {
		t.Fatalf("inter class missing or miscounted: %+v", faults)
	}
	if inter.MeanTotalUS < 2*intra.MeanTotalUS {
		t.Errorf("inter-cluster fault (%.0fus) not measurably above intra (%.0fus)",
			inter.MeanTotalUS, intra.MeanTotalUS)
	}
	// Sanity: the intra-cluster fault matches the paper's uniform SCI cost
	// (Table 3 total: 194us, allow rounding slack), because inside one
	// cluster nothing changed.
	if intra.MeanTotalUS < 185 || intra.MeanTotalUS > 215 {
		t.Errorf("intra-cluster fault = %.0fus, want the Table 3 SCI ballpark (~194-207us)", intra.MeanTotalUS)
	}
}

// TestLinkMatrixAsymmetricMigration: an asymmetric matrix charges migration
// by direction — moving a thread over the degraded link costs more than
// moving it back.
func TestLinkMatrixAsymmetricMigration(t *testing.T) {
	topo := dsmpm2.LinkMatrixTopology(dsmpm2.BIPMyrinet).
		SetLink(0, 1, dsmpm2.TCPFastEthernet) // uplink degraded, downlink fast
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Network: topo})
	var out, back dsmpm2.Duration
	sys.Spawn(0, "wanderer", func(th *dsmpm2.Thread) {
		start := th.Now()
		th.MigrateTo(1)
		out = th.Now().Sub(start)
		start = th.Now()
		th.MigrateTo(0)
		back = th.Now().Sub(start)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if out <= back {
		t.Errorf("degraded-uplink migration (%v) not slower than the fast return (%v)", out, back)
	}
}

// TestContentionQueuesSaturatedLink is the end-to-end contention acceptance:
// concurrent page transfers over one link serialize in virtual time, with
// observable queueing delay, while the same workload with the model off
// overlaps for free.
func TestContentionQueuesSaturatedLink(t *testing.T) {
	res := bench.Contention(dsmpm2.BIPMyrinet, 6)
	if res.MeanFaultOnUS <= res.MeanFaultOffUS {
		t.Errorf("contended mean fault (%.0fus) not above uncontended (%.0fus)",
			res.MeanFaultOnUS, res.MeanFaultOffUS)
	}
	if res.Waits == 0 || res.WaitTimeUS <= 0 {
		t.Errorf("saturated link produced no queueing: %+v", res)
	}
}

// TestTopologySizeMismatchRejected: a topology built for N nodes cannot be
// attached to a machine of a different size.
func TestTopologySizeMismatchRejected(t *testing.T) {
	topo := dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet)
	_, err := dsmpm2.New(dsmpm2.Config{Nodes: 6, Network: topo})
	if err == nil || !strings.Contains(err.Error(), "built for 4 nodes") {
		t.Fatalf("mismatched topology not rejected: %v", err)
	}
}

// TestTopologyImpliesNodeCount: a size-bound topology fills in Config.Nodes
// when the caller leaves it zero.
func TestTopologyImpliesNodeCount(t *testing.T) {
	topo := dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(6, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet)
	sys, err := dsmpm2.New(dsmpm2.Config{Network: topo})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Nodes() != 6 {
		t.Fatalf("Nodes() = %d, want 6 inferred from the topology", sys.Nodes())
	}
}

// TestSystemTopologyAccessors: the machine resolves per-link profiles, and a
// profile as Config.Network is the uniform topology: every link, loopback
// included, resolves to it.
func TestSystemTopologyAccessors(t *testing.T) {
	topo := dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet)
	rt := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4, Network: topo}).Runtime()
	if rt.Link(0, 1) != dsmpm2.SISCISCI || rt.Link(0, 2) != dsmpm2.TCPFastEthernet {
		t.Error("per-link lookup resolved the wrong profiles")
	}
	uni := dsmpm2.MustNew(dsmpm2.Config{Nodes: 3, Network: dsmpm2.TCPMyrinet}).Runtime()
	for src := 0; src < uni.Nodes(); src++ {
		for dst := 0; dst < uni.Nodes(); dst++ {
			if l := uni.Link(src, dst); l != dsmpm2.TCPMyrinet {
				t.Errorf("uniform link %d->%d resolved to %s, want the configured profile", src, dst, l.Name)
			}
		}
	}
}
