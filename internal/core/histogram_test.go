package core

import (
	"math/rand"
	"testing"

	"dsmpm2/internal/sim"
)

// Merge folds o into h bucket-by-bucket. Merging per-node histograms and
// then extracting quantiles gives the same result as recording every sample
// into one histogram — counts are additive and the grid is shared.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// TestHistogramBucketBoundaries pins the grid itself: every bucket's upper
// bound maps back into that bucket, the next nanosecond maps into a later
// one, and small durations get exact unit buckets.
func TestHistogramBucketBoundaries(t *testing.T) {
	for v := int64(0); v < histSub; v++ {
		if got := histBucketOf(v); got != int(v) {
			t.Fatalf("histBucketOf(%d) = %d, want exact unit bucket", v, got)
		}
		if got := histBucketMax(int(v)); got != v {
			t.Fatalf("histBucketMax(%d) = %d, want %d", v, got, v)
		}
	}
	for i := 0; i < histBuckets; i++ {
		hi := histBucketMax(i)
		if got := histBucketOf(hi); got != i {
			t.Fatalf("bucket %d upper bound %d maps to bucket %d", i, hi, got)
		}
		if i > 0 {
			lo := histBucketMax(i-1) + 1
			if got := histBucketOf(lo); got != i {
				t.Fatalf("bucket %d lower bound %d maps to bucket %d", i, lo, got)
			}
		}
	}
	// The full int64 range is covered and monotone at the top.
	if got := histBucketOf(1<<63 - 1); got != histBuckets-1 {
		t.Fatalf("max int64 maps to bucket %d, want last bucket %d", got, histBuckets-1)
	}
	// Relative error bound: every bucket above the exact range spans less
	// than a 1/histSub fraction of its lower bound.
	for i := histSub + 1; i < histBuckets; i++ {
		lo, hi := histBucketMax(i-1)+1, histBucketMax(i)
		if (hi-lo+1)*histSub > lo+histSub {
			t.Fatalf("bucket %d [%d,%d] wider than the %v%% resolution bound", i, lo, hi, 100.0/histSub)
		}
	}
}

// TestHistogramQuantiles checks deterministic quantile extraction against a
// brute-force oracle: the reported quantile must be the grid upper bound of
// the bucket holding the ceil(q*n)-th smallest sample.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..100 microseconds: p50 must cover 50us, p99 must cover 99us.
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	checks := []struct {
		q      float64
		sample sim.Duration // the rank-selected raw sample the bucket must cover
	}{
		{0.50, 50 * sim.Microsecond},
		{0.95, 95 * sim.Microsecond},
		{0.99, 99 * sim.Microsecond},
		{1.00, 100 * sim.Microsecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		want := sim.Duration(histBucketMax(histBucketOf(int64(c.sample))))
		if got != want {
			t.Errorf("Quantile(%v) = %v, want grid value %v covering sample %v", c.q, got, want, c.sample)
		}
		if got < c.sample {
			t.Errorf("Quantile(%v) = %v below its rank sample %v", c.q, got, c.sample)
		}
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	wantMean := sim.Duration(50500) * sim.Microsecond / 1000 // mean of 1..100 us = 50.5us
	if h.Mean() != wantMean {
		t.Fatalf("Mean = %v, want %v", h.Mean(), wantMean)
	}
	if h.Max() != 100*sim.Microsecond {
		t.Fatalf("Max = %v, want 100us", h.Max())
	}
}

// TestHistogramEmpty pins the empty-histogram edge: zero count, zero
// quantiles, zero mean — no panics, no NaNs.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram not all-zero: count=%d p50=%v p99=%v mean=%v max=%v",
			h.Count(), h.Quantile(0.5), h.Quantile(0.99), h.Mean(), h.Max())
	}
	var o Histogram
	h.Merge(&o)
	if h.Count() != 0 {
		t.Fatal("merging two empty histograms produced samples")
	}
}

// TestHistogramNegativeClamped: negative durations (clock skew in caller
// arithmetic) clamp to the zero bucket instead of corrupting the array.
func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Count() != 1 || h.Quantile(1) != 0 || h.Max() != 0 {
		t.Fatalf("negative sample mishandled: count=%d p100=%v max=%v", h.Count(), h.Quantile(1), h.Max())
	}
}

// TestHistogramMergeAcrossNodes: recording a sample set into N per-node
// histograms and merging them must be bit-identical to recording everything
// into one histogram, for any partition of the samples.
func TestHistogramMergeAcrossNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]sim.Duration, 5000)
	for i := range samples {
		samples[i] = sim.Duration(rng.Int63n(int64(50 * sim.Millisecond)))
	}
	var whole Histogram
	for _, s := range samples {
		whole.Record(s)
	}
	const nodes = 4
	var parts [nodes]Histogram
	for i, s := range samples {
		parts[rng.Intn(nodes)].Record(s)
		_ = i
	}
	var merged Histogram
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged != whole {
		t.Fatal("merged per-node histograms differ from the whole-set histogram")
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("Quantile(%v) differs after merge: %v vs %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

// TestHistogramOrderIndependenceProperty is the replay-determinism property
// in the style of determinism_test.go: any shuffle of the same sample set
// produces a bit-identical histogram (struct equality — every bucket, count,
// sum and max), which is what lets two replayed runs of one seed compare
// histograms with ==.
func TestHistogramOrderIndependenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		n := 100 + rng.Intn(2000)
		samples := make([]sim.Duration, n)
		for i := range samples {
			samples[i] = sim.Duration(rng.Int63n(int64(sim.Second)))
		}
		var want Histogram
		for _, s := range samples {
			want.Record(s)
		}
		shuffled := append([]sim.Duration(nil), samples...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		var got Histogram
		for _, s := range shuffled {
			got.Record(s)
		}
		if got != want {
			t.Fatalf("trial %d: shuffled insertion order changed the histogram", trial)
		}
	}
}

// TestOpHistRegistry pins the DSM-level registry: lazily created, stable
// across lookups, kinds reported in sorted order.
func TestOpHistRegistry(t *testing.T) {
	d := &DSM{}
	g := d.OpHist("get")
	g.Record(5 * sim.Microsecond)
	if d.OpHist("get") != g {
		t.Fatal("OpHist created a second histogram for the same kind")
	}
	d.OpHist("put")
	d.OpHist("drop")
	kinds := d.OpKinds()
	want := []string{"drop", "get", "put"}
	if len(kinds) != len(want) {
		t.Fatalf("OpKinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("OpKinds = %v, want %v", kinds, want)
		}
	}
	if d.OpHist("get").Count() != 1 {
		t.Fatal("recorded sample lost")
	}
}
