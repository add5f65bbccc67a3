package tsp

import (
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
}
