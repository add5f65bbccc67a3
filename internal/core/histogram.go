package core

import (
	"math"
	"math/bits"
	"sort"

	"dsmpm2/internal/sim"
)

// Per-operation latency histograms for serving workloads. The TimingLog keeps
// the last few thousand faults for post-mortem inspection; a request-driven
// workload needs the opposite trade — millions of samples, fixed memory, and
// quantiles that do not depend on which samples happened to survive a ring
// eviction. Histogram is that structure: a fixed array of log-spaced
// virtual-time buckets, so Record is allocation-free (array index + add) and
// two runs that produce the same samples produce bit-identical bucket counts
// regardless of arrival order.
//
// Bucketing scheme (HDR-style, pure integer math): durations below histSub ns
// get exact unit buckets; above that, each power of two is split into histSub
// log-spaced sub-buckets, giving a worst-case relative error of 1/histSub
// (~3%) at every magnitude. A quantile is reported as the UPPER bound of the
// bucket the requested rank falls in — a value from a fixed, seed-independent
// grid, which is what makes quantiles comparable across runs, nodes and
// snapshots.

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per power of two; also the exact-value span
	// histBuckets covers every non-negative int64 duration: exact buckets
	// [0, histSub), then (63 - histSubBits) octaves of histSub sub-buckets.
	histBuckets = (64 - histSubBits) * histSub
)

// Histogram is a fixed-size latency histogram over virtual-time durations.
// The zero value is ready to use. It is sized for embedding: no pointers, so
// snapshotting is a struct copy.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    int64
	max    int64
}

// histBucketOf maps a duration (clamped to >= 0) to its bucket index.
func histBucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - histSubBits
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// histBucketMax returns the largest duration mapping to bucket i — the fixed
// grid value quantiles are reported on.
func histBucketMax(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	exp := uint(i/histSub - 1)
	sub := int64(i % histSub)
	return ((histSub + sub + 1) << exp) - 1
}

// Record adds one sample. Negative durations are clamped to zero.
func (h *Histogram) Record(d sim.Duration) {
	v := max(int64(d), 0)
	h.counts[histBucketOf(v)]++
	h.n++
	h.sum += v
	h.max = max(h.max, v)
}

// Count reports the number of recorded samples.
func (h *Histogram) Count() int64 { return h.n }

// Mean returns the exact mean of the recorded samples (sums are kept at full
// resolution; only quantiles are grid-valued), or 0 if empty.
func (h *Histogram) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.sum / h.n)
}

// Max returns the largest recorded sample (exact, not grid-rounded).
func (h *Histogram) Max() sim.Duration { return sim.Duration(h.max) }

// Quantile returns the q-quantile (0 < q <= 1) as the upper bound of the
// bucket containing the ceil(q*n)-th smallest sample — deterministic, and
// identical whether computed on a live histogram, a snapshot, or a merge of
// per-node parts. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if cum >= rank {
			return sim.Duration(histBucketMax(i))
		}
	}
	return sim.Duration(h.max) // unreachable: counts sum to n
}

// Snapshot returns a copy of the histogram (a plain struct copy: quantiles
// extracted from the copy are immune to further recording).
func (h *Histogram) Snapshot() Histogram { return *h }

// Equal reports whether two histograms hold bit-identical contents — the
// bucket counts and all exact aggregates. Replay and merge-vs-direct checks
// use it: histograms built from the same samples compare equal however the
// samples were partitioned.
func (h *Histogram) Equal(o *Histogram) bool { return *h == *o }

// HistSummary is the standard latency digest extracted from one histogram:
// grid-valued quantiles plus the exact-resolution mean and max.
type HistSummary struct {
	Count int64        `json:"count"`
	P50   sim.Duration `json:"p50_ns"`
	P95   sim.Duration `json:"p95_ns"`
	P99   sim.Duration `json:"p99_ns"`
	Mean  sim.Duration `json:"mean_ns"`
	Max   sim.Duration `json:"max_ns"`
}

// Summarize digests the histogram. Read it on a quiescent histogram or a
// Snapshot, like the other readers.
func (h *Histogram) Summarize() HistSummary {
	return HistSummary{
		Count: h.Count(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		Mean:  h.Mean(),
		Max:   h.Max(),
	}
}

// OpHist returns the latency histogram registered under kind, creating it on
// first use. Intended pattern: one kind per operation class ("get", "put",
// "timeout", ...), recorded by application or protocol code on the
// completion path. The histograms live outside Stats (they are too big to
// copy on every Stats() call) but share its lifetime.
func (d *DSM) OpHist(kind string) *Histogram {
	if d.opHists == nil {
		d.opHists = make(map[string]*Histogram)
	}
	h := d.opHists[kind]
	if h == nil {
		h = &Histogram{}
		d.opHists[kind] = h
	}
	return h
}

// OpKinds returns the registered histogram kinds in sorted order, so reports
// iterate deterministically.
func (d *DSM) OpKinds() []string {
	out := make([]string, 0, len(d.opHists))
	for k := range d.opHists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
