package lu

import (
	"math"
	"testing"

	"dsmpm2"
)

func TestSerialStable(t *testing.T) {
	c1 := SolveSerial(8, 3)
	c2 := SolveSerial(8, 3)
	if c1 != c2 {
		t.Fatal("serial checksum not deterministic")
	}
	if math.IsNaN(c1) || math.IsInf(c1, 0) {
		t.Fatalf("factorization unstable: %v", c1)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	const n, seed = 8, 3
	want := SolveSerial(n, seed)
	hier := dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2), dsmpm2.SISCISCI, dsmpm2.TCPFastEthernet)
	for _, row := range []struct {
		name string
		cfg  Config
	}{
		{"li_hudak", Config{Nodes: 2, Protocol: "li_hudak"}},
		{"hbrc_mw", Config{Nodes: 2, Protocol: "hbrc_mw"}},
		{"erc_sw", Config{Nodes: 2, Protocol: "erc_sw"}},
		{"hbrc_mw/hier", Config{Nodes: 4, Protocol: "hbrc_mw", Network: hier}},
	} {
		row.cfg.N, row.cfg.Seed = n, seed
		res, err := Run(row.cfg)
		if err != nil {
			t.Fatalf("[%s] %v", row.name, err)
		}
		if math.Abs(res.Checksum-want) > 1e-6*math.Abs(want) {
			t.Errorf("[%s] checksum = %v, want %v", row.name, res.Checksum, want)
		}
	}
}

func TestParallelFourNodes(t *testing.T) {
	const n, seed = 12, 7
	want := SolveSerial(n, seed)
	res, err := Run(Config{N: n, Nodes: 4, Protocol: "hbrc_mw", Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Checksum-want) > 1e-6*math.Abs(want) {
		t.Fatalf("checksum = %v, want %v", res.Checksum, want)
	}
}

func TestPivotBroadcastGeneratesSharing(t *testing.T) {
	res, err := Run(Config{N: 8, Nodes: 4, Protocol: "li_hudak", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Every elimination step broadcasts a pivot row to the other nodes:
	// there must be substantially more page transfers than pages.
	if res.Stats.PageSends < int64(8) {
		t.Fatalf("page sends = %d; pivot broadcast pattern missing", res.Stats.PageSends)
	}
}

func TestLUBadConfig(t *testing.T) {
	if _, err := Run(Config{N: 1, Nodes: 1}); err == nil {
		t.Error("1x1 factorization accepted")
	}
	if _, err := Run(Config{N: 8, Nodes: 0}); err == nil {
		t.Error("0-node run accepted")
	}
}
