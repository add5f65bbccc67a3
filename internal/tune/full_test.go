package tune

import "testing"

// TestFullGridAllWorkloads is the tuner's acceptance sweep: the complete
// default grid (11 protocols x 2 topologies x 3 placements = 66 cells, well
// past the 40-cell floor) for every recordable workload. A
// majority of cells must run the workload correctly, and the winner must beat
// the misplaced recording baseline — otherwise the recommendation is useless.
func TestFullGridAllWorkloads(t *testing.T) {
	for _, wl := range Workloads {
		rec, err := Record(wl, 9)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		rep, err := Sweep(rec, Options{})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if rep.GridSize != 11*2*3 {
			t.Fatalf("%s: grid has %d cells, want 66", wl, rep.GridSize)
		}
		correct := 0
		for _, c := range rep.Cells {
			if c.Correct {
				correct++
			}
		}
		if correct < rep.GridSize/2 {
			t.Errorf("%s: only %d of %d cells ran correctly", wl, correct, rep.GridSize)
		}
		if !rep.Winner.Correct || rep.Winner.VirtualMS > rep.Baseline.VirtualMS {
			t.Errorf("%s: winner %s (%.3f ms) does not beat the baseline (%.3f ms)",
				wl, rep.Winner.Key(), rep.Winner.VirtualMS, rep.Baseline.VirtualMS)
		}
		t.Logf("%s: %d/%d correct, winner %s %.3fms (baseline %.3fms)",
			wl, correct, rep.GridSize, rep.Winner.Key(), rep.Winner.VirtualMS, rep.Baseline.VirtualMS)
	}
}
