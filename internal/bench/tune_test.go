package bench

import (
	"testing"

	"dsmpm2/internal/tune"
)

// TestTuneSuite: the experiment driver must hand back a recording whose
// baseline the ranked winner beats, under the pinned seed.
func TestTuneSuite(t *testing.T) {
	rec, rep, err := TuneSuite("jacobi", tune.Options{
		Protocols: []string{"li_hudak", "adaptive"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seed != TuneSeed {
		t.Errorf("recording seed %d, want the pinned %d", rec.Seed, TuneSeed)
	}
	if rep.GridSize != 2*2*3 {
		t.Errorf("grid size %d, want 12", rep.GridSize)
	}
	if !rep.Winner.Correct || rep.Winner.VirtualMS > rep.Baseline.VirtualMS {
		t.Errorf("winner %+v does not beat baseline %.3f ms", rep.Winner, rep.Baseline.VirtualMS)
	}
	if _, _, err := TuneSuite("bogus", tune.Options{}); err == nil {
		t.Error("unknown workload accepted")
	}
}
