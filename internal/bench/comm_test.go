package bench

import "testing"

// TestCommScaleBackboneEnvelopes pins the one number read out of
// Network.EnvelopesByLink — the backbone envelope count of the 64-node
// -exp comm scale row — to the committed BENCH_comm.json value; the
// remainder of Envelopes is the intra-cluster class.
func TestCommScaleBackboneEnvelopes(t *testing.T) {
	r := commScale(64, 4)
	if r.BackboneEnvelopes != 616 || r.Envelopes != 1158 {
		t.Errorf("backbone %d of %d envelopes, want 616 of 1158", r.BackboneEnvelopes, r.Envelopes)
	}
}

// TestCommJacobi64Envelopes pins the 64-node hbrc_mw jacobi row of -exp comm
// — the row where barrier write notices replace every eager invalidation —
// to its committed BENCH_comm.json values.
func TestCommJacobi64Envelopes(t *testing.T) {
	for _, c := range commRuns() {
		if c.app != "jacobi" || c.nodes != 64 {
			continue
		}
		r := c.measure()
		if r.Envelopes != 28918 || r.SyncEnvelopes != 12288 || r.Notices != 4127 || r.Invalidations != 0 {
			t.Errorf("envelopes %d, sync_envelopes %d, notices %d, invalidations %d; want 28918, 12288, 4127, 0",
				r.Envelopes, r.SyncEnvelopes, r.Notices, r.Invalidations)
		}
		return
	}
	t.Fatal("the 64-node jacobi scenario is missing from the comm suite")
}
