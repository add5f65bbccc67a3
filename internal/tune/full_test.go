package tune

import "testing"

// TestFullGridAllWorkloads is the tuner's acceptance sweep: the complete
// default grid (11 protocols x 2 topologies x 3 placements = 66 cells, well
// past the 40-cell floor) for every workload. A majority of cells must run
// the workload correctly, the winner must beat the misplaced baseline —
// otherwise the recommendation is useless — and the baseline, which the
// grid contains, must measure exactly what its grid cell does.
func TestFullGridAllWorkloads(t *testing.T) {
	for _, wl := range Workloads {
		rep, err := Sweep(wl, 9, Options{})
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
			if c.Cell == rep.Baseline.Cell {
				c.Rank = 0
				if c != rep.Baseline {
					t.Errorf("%s: baseline %+v differs from its grid cell %+v", wl, rep.Baseline, c)
				}
			}
		}
		if correct < rep.GridSize/2 {
			t.Errorf("%s: only %d of %d cells ran correctly", wl, correct, rep.GridSize)
		}
		if !rep.Baseline.Correct || rep.Baseline.Rank != 0 {
			t.Errorf("%s: baseline %+v is incorrect or ranked", wl, rep.Baseline)
		}
		if !rep.Winner.Correct || rep.Winner.VirtualMS > rep.Baseline.VirtualMS {
			t.Errorf("%s: winner %s (%.3f ms) does not beat the baseline (%.3f ms)",
				wl, rep.Winner.Key(), rep.Winner.VirtualMS, rep.Baseline.VirtualMS)
		}
		t.Logf("%s: %d/%d correct, winner %s %.3fms (baseline %.3fms)",
			wl, correct, rep.GridSize, rep.Winner.Key(), rep.Winner.VirtualMS, rep.Baseline.VirtualMS)
	}
}
