package tsp

import (
	"fmt"
	"testing"

	"dsmpm2"
)

func TestSerialSolverSane(t *testing.T) {
	// Triangle with known optimum.
	dist := [][]int{{0, 1, 2}, {1, 0, 3}, {2, 3, 0}}
	if got := SolveSerial(dist); got != 6 {
		t.Fatalf("triangle tour = %d, want 6", got)
	}
}

func TestDistancesSymmetricDeterministic(t *testing.T) {
	d1 := Distances(8, 5)
	d2 := Distances(8, 5)
	for i := range d1 {
		for j := range d1[i] {
			if d1[i][j] != d2[i][j] {
				t.Fatal("distances not deterministic")
			}
			if d1[i][j] != d1[j][i] {
				t.Fatal("distances not symmetric")
			}
			if i != j && d1[i][j] <= 0 {
				t.Fatal("non-positive distance")
			}
		}
	}
}

func TestParallelMatchesSerialAllProtocols(t *testing.T) {
	const cities, seed = 9, 11
	want := SolveSerial(Distances(cities, seed))
	hier := dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet)
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"li_hudak", Config{Protocol: "li_hudak"}},
		{"migrate_thread", Config{Protocol: "migrate_thread"}},
		{"erc_sw", Config{Protocol: "erc_sw"}},
		{"hbrc_mw", Config{Protocol: "hbrc_mw"}},
		{"hybrid", Config{Protocol: "hybrid"}},
		{"li_hudak/hier", Config{Protocol: "li_hudak", Network: hier}},
	} {
		row.cfg.Cities, row.cfg.Seed, row.cfg.Nodes = cities, seed, 4
		res, err := Run(row.cfg)
		if err != nil {
			t.Fatalf("[%s] %v", row.name, err)
		}
		if res.BestCost != want {
			t.Errorf("[%s] best = %d, want %d", row.name, res.BestCost, want)
		}
		if res.Expansions == 0 {
			t.Errorf("[%s] no expansions recorded", row.name)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	// Figure 4: "all protocols based on page migration perform better than
	// the protocol using thread migration", because the computing threads
	// pile up on the node holding the shared bound.
	const cities, seed, nodes = 9, 11, 4
	times := map[string]dsmpm2.Time{}
	for _, proto := range []string{"li_hudak", "erc_sw", "hbrc_mw", "migrate_thread"} {
		res, err := Run(Config{Cities: cities, Seed: seed, Nodes: nodes, Protocol: proto})
		if err != nil {
			t.Fatalf("[%s] %v", proto, err)
		}
		times[proto] = res.Elapsed
	}
	for _, pageProto := range []string{"li_hudak", "erc_sw", "hbrc_mw"} {
		if times[pageProto] >= times["migrate_thread"] {
			t.Errorf("%s (%v) not faster than migrate_thread (%v); Figure 4 shape broken",
				pageProto, times[pageProto], times["migrate_thread"])
		}
	}
}

func TestMigrateThreadOverloadsBoundOwner(t *testing.T) {
	res, err := Run(Config{Cities: 8, Seed: 3, Nodes: 4, Protocol: "migrate_thread"})
	if err != nil {
		t.Fatal(err)
	}
	rt := res.System.Runtime()
	if rt.Node(0).MigrationsIn == 0 {
		t.Fatal("no threads migrated to the bound's owner node")
	}
}

func TestTSPBadConfig(t *testing.T) {
	if _, err := Run(Config{Cities: 2, Nodes: 1}); err == nil {
		t.Error("2-city run accepted")
	}
	if _, err := Run(Config{Cities: 5, Nodes: 0}); err == nil {
		t.Error("0-node run accepted")
	}
	if _, err := Run(Config{Cities: 65, Nodes: 1}); err == nil {
		t.Error("65-city run accepted")
	}
}

// TestSearchGolden pins the search's simulated behaviour: every value below
// was recorded from the closure-based search with an O(n) lower-bound scan,
// so a host-side rewrite must keep the same expansions, the same Compute and
// bound-read sequence and the same child order.
func TestSearchGolden(t *testing.T) {
	hier := dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet)
	for _, row := range []struct {
		proto         string
		cities, nodes int
		network       dsmpm2.Topology
		trace         bool
		expansions    int64
		elapsed       dsmpm2.Time
		best          int
		fingerprint   string
		spans         int
	}{
		{"li_hudak", 8, 1, nil, false, 2429, 6762000, 201, "7a9437ffcc3cf964f0d0b3249a759193fed7b89237ae740a0e54917d4d2c3ad8", 0},
		{"li_hudak", 10, 3, nil, false, 38665, 48769000, 225, "81c4ff82baccaf6a066eb5109ca148ee2ef398fcf2f23dfd755ca1571e5a65e5", 0},
		{"li_hudak", 10, 8, nil, false, 52390, 43204000, 225, "a56ef539d2687d4fc04ee83baeecabc5ec8967eadc0b489f188488c6d238e454", 0},
		{"migrate_thread", 8, 1, nil, false, 2429, 6762000, 201, "7a9437ffcc3cf964f0d0b3249a759193fed7b89237ae740a0e54917d4d2c3ad8", 0},
		{"migrate_thread", 10, 3, nil, false, 38179, 76967000, 225, "5adfa909dc3e63ef236ad17020b127c2fd2df1271c3b155e4d5c1dff8e72fcc3", 0},
		{"migrate_thread", 10, 8, nil, false, 46138, 92395000, 225, "04cffebe8d9a7e6ccf097b1d3b0ccb0c9c79219acf75886c7c7dcb1a293df230", 0},
		{"erc_sw", 8, 1, nil, false, 2429, 6762000, 201, "7a9437ffcc3cf964f0d0b3249a759193fed7b89237ae740a0e54917d4d2c3ad8", 0},
		{"erc_sw", 10, 3, nil, false, 38775, 47946000, 225, "b4f5d2320433dc7cdd7f22c4dad110346c8c012a544bd6187dec14bd3598f1ea", 0},
		{"erc_sw", 10, 8, nil, false, 57726, 49123000, 225, "58c76ac257176468c192f2dde30215cf2bd2045c51ab67c2ff380b78ddd3c14a", 0},
		{"hbrc_mw", 8, 1, nil, false, 2429, 6927000, 201, "2f5961bcb98c5e5a754481bb3c297f60783eb862306137e750c8209dc1b190b9", 0},
		{"hbrc_mw", 10, 3, nil, false, 38917, 43986946, 225, "19a1b36e110ecce1e925f0c1c4ea0855650bd8e57211e1245d6949c993108bdb", 0},
		{"hbrc_mw", 10, 8, nil, false, 51298, 33142850, 225, "12728863f6200bf22c203bf698368132d6f64b7f4497a2e45d87d5c5b380a2fa", 0},
		{"hybrid", 8, 1, nil, false, 2429, 6762000, 201, "7a9437ffcc3cf964f0d0b3249a759193fed7b89237ae740a0e54917d4d2c3ad8", 0},
		{"hybrid", 10, 3, nil, false, 38200, 77715000, 225, "1a3aa7199c6de3e3063f3efc462b82499fd7e8f247cd7e341bd8e4ff7cf6c012", 0},
		{"hybrid", 10, 8, nil, false, 50108, 90272000, 225, "88c314106f7a84747209568795defc148d80b1b1b987d7d171e4db372a08dda6", 0},
		{"li_hudak", 10, 4, hier, false, 46592, 111822000, 225, "1f7b50d818cbdd3cf3abc0be763349917b8c8e010d33e8855e359088e837a595", 0},
		{"li_hudak", 8, 2, nil, true, 2642, 8678000, 201, "af21fbaa6c88cd3a89f6b51c0948e0a680b549e37d5a85d868cdb59242bf2212", 5657},
	} {
		name := fmt.Sprintf("%s/%dcities/%dnodes", row.proto, row.cities, row.nodes)
		if row.network != nil {
			name += "/hier"
		}
		if row.trace {
			name += "/traced"
		}
		res, err := Run(Config{Cities: row.cities, Nodes: row.nodes, Seed: 42, Protocol: row.proto, Network: row.network, Trace: row.trace})
		if err != nil {
			t.Fatalf("[%s] %v", name, err)
		}
		if res.Expansions != row.expansions || res.Elapsed != row.elapsed || res.BestCost != row.best {
			t.Errorf("[%s] expansions %d, elapsed %d, best %d; want %d, %d, %d",
				name, res.Expansions, res.Elapsed, res.BestCost, row.expansions, row.elapsed, row.best)
		}
		if fp := res.System.Fingerprint(); fp != row.fingerprint {
			t.Errorf("[%s] fingerprint %s, want %s", name, fp, row.fingerprint)
		}
		if got := res.System.Trace().Len(); got != row.spans {
			t.Errorf("[%s] %d spans, want %d", name, got, row.spans)
		}
	}
}

// TestSearchAllocatesNothingPerExpansion: a run's allocations are set-up
// (system, threads, messages), not search. Going from 9 to 11 cities grows
// the expansions several-fold and must leave the allocation count flat.
func TestSearchAllocatesNothingPerExpansion(t *testing.T) {
	run := func(cities int) (allocs float64, expansions int64) {
		cfg := Config{Cities: cities, Nodes: 8, Seed: 42, Protocol: "migrate_thread"}
		allocs = testing.AllocsPerRun(2, func() {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			expansions = res.Expansions
		})
		return allocs, expansions
	}
	small, smallExp := run(9)
	large, largeExp := run(11)
	if largeExp < 4*smallExp {
		t.Fatalf("expansions %d at 11 cities, %d at 9: the instance no longer grows the search", largeExp, smallExp)
	}
	if large-small > 16 {
		t.Errorf("%.0f allocations at 11 cities (%d expansions), %.0f at 9 (%d): the search allocates per expansion",
			large, largeExp, small, smallExp)
	}
}

// BenchmarkSearch reports the host cost of one expansion at Figure 4's two
// ends, the page-based li_hudak and migrate_thread, on 8 nodes.
func BenchmarkSearch(b *testing.B) {
	for _, proto := range []string{"li_hudak", "migrate_thread"} {
		b.Run(proto, func(b *testing.B) {
			var expansions int64
			for i := 0; i < b.N; i++ {
				res, err := Run(Config{Cities: 11, Nodes: 8, Seed: 42, Protocol: proto})
				if err != nil {
					b.Fatal(err)
				}
				expansions += res.Expansions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(expansions), "ns/expansion")
		})
	}
}
