package matmul

import (
	"math"
	"testing"

	"dsmpm2"
)

func TestSerialDeterministic(t *testing.T) {
	if SolveSerial(6, 3) != SolveSerial(6, 3) {
		t.Fatal("serial checksum not deterministic")
	}
	if SolveSerial(6, 3) == SolveSerial(6, 4) {
		t.Fatal("different seeds gave identical checksums")
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
		{"hbrc_mw/hier", Config{Nodes: 4, Protocol: "hbrc_mw", Network: hier}},
	} {
		row.cfg.N, row.cfg.Seed = n, seed
		res, err := Run(row.cfg)
		if err != nil {
			t.Fatalf("[%s] %v", row.name, err)
		}
		if math.Abs(res.Checksum-want) > 1e-9 {
			t.Errorf("[%s] checksum = %v, want %v", row.name, res.Checksum, want)
		}
	}
}

func TestReadSharingReplicatesNotPingPongs(t *testing.T) {
	// A and B are read-only: after the initial replication, no
	// invalidations should occur under li_hudak.
	res, err := Run(Config{N: 8, Nodes: 4, Protocol: "li_hudak", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Invalidations != 0 {
		t.Fatalf("read-only workload caused %d invalidations", res.Stats.Invalidations)
	}
}

func TestMatmulBadConfig(t *testing.T) {
	if _, err := Run(Config{N: 0, Nodes: 1}); err == nil {
		t.Error("empty matrix accepted")
	}
}
