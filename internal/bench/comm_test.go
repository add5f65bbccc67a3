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
