package bench

import "testing"

// TestCommScaleBackboneEnvelopes pins the one number read out of
// Network.EnvelopesByLink — the backbone envelope count of the 64-node
// -exp comm scale rows — to the committed BENCH_comm.json values, flat and
// with the combining tree; the remainder of Envelopes is the intra-cluster
// class.
func TestCommScaleBackboneEnvelopes(t *testing.T) {
	for _, tc := range []struct {
		shards              int
		backbone, envelopes int
	}{
		{1, 616, 1158},
		{CommScaleClusters, 396, 1386},
	} {
		r := commScale(64, 4, tc.shards)
		if r.BackboneEnvelopes != tc.backbone || r.Envelopes != tc.envelopes {
			t.Errorf("shards=%d: backbone %d of %d envelopes, want %d of %d",
				tc.shards, r.BackboneEnvelopes, r.Envelopes, tc.backbone, tc.envelopes)
		}
	}
}
