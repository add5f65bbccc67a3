package jacobi

import (
	"math"
	"testing"
)

func TestSerialConverges(t *testing.T) {
	few := SolveSerial(8, 2)
	many := SolveSerial(8, 50)
	if few <= 0 || many <= 0 {
		t.Fatalf("checksums not positive: %v %v", few, many)
	}
	if many <= few {
		t.Fatalf("heat did not diffuse: %v then %v", few, many)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	const n, iters = 8, 4
	want := SolveSerial(n, iters)
	for _, proto := range []string{"li_hudak", "hbrc_mw", "erc_sw"} {
		res, err := Run(Config{N: n, Iterations: iters, Nodes: 2, Protocol: proto, Seed: 1})
		if err != nil {
			t.Fatalf("[%s] %v", proto, err)
		}
		if math.Abs(res.Checksum-want) > 1e-9 {
			t.Errorf("[%s] checksum = %v, want %v", proto, res.Checksum, want)
		}
	}
}

func TestParallelMatchesSerialFourNodes(t *testing.T) {
	const n, iters = 12, 3
	want := SolveSerial(n, iters)
	res, err := Run(Config{N: n, Iterations: iters, Nodes: 4, Protocol: "hbrc_mw", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Checksum-want) > 1e-9 {
		t.Fatalf("checksum = %v, want %v", res.Checksum, want)
	}
}

func TestHbrcPropagatesAtBarriers(t *testing.T) {
	// Every grid row is homed on the node that writes it, so hbrc_mw's
	// releases (at the barriers) propagate home-side writes to the
	// boundary readers, which then refetch. Heat starts at the top edge
	// and needs about five sweeps to reach the block boundary of an
	// 8-row grid, so run enough iterations for the boundary rows to
	// actually change. The propagation vehicle is write notices
	// piggybacked on the barrier (zero invalidation envelopes).
	res, err := Run(Config{N: 8, Iterations: 10, Nodes: 2, Protocol: "hbrc_mw", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Notices == 0 {
		t.Fatal("hbrc_mw jacobi never piggybacked a write notice on a barrier")
	}
	if res.Stats.Invalidations != 0 {
		t.Fatalf("hbrc_mw jacobi sent %d eager invalidations; barriers should carry the notices",
			res.Stats.Invalidations)
	}
	if res.Stats.PageSends == 0 {
		t.Fatal("boundary rows never travelled")
	}
}

func TestJacobiBadConfig(t *testing.T) {
	if _, err := Run(Config{N: 1, Iterations: 1, Nodes: 1}); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := Run(Config{N: 8, Iterations: 0, Nodes: 1}); err == nil {
		t.Error("0 iterations accepted")
	}
}
