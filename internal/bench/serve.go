package bench

// The "serve" experiment: a serving-scale workload instead of a
// barrier-phased kernel. The kvstore app pushes an open-loop Zipf trace
// (seeded Poisson arrivals, hot-key churn phases) through per-bucket
// entry-consistency locks, and the number that matters is the tail of the
// per-operation latency distribution, read from the core's fixed-grid
// histograms — virtual-time exact and bit-identical across replays of one
// seed, like every other BENCH_*.json artifact.
//
// Both rows serve the identical trace from the same deliberately bad static
// placement (every bucket homed on node 0). The static row keeps it; the
// adaptive row lets the profiler re-home hot buckets onto their serving
// nodes at the epoch barriers. The acceptance headline is the p99: static
// placement pays a remote fetch per acquire and saturates, adaptive turns
// the hot buckets local mid-run and the tail collapses.

import (
	"fmt"
	"slices"

	"dsmpm2"
	"dsmpm2/internal/apps/kvstore"
)

// ServeResult is one placement's run of the serve experiment.
type ServeResult struct {
	Placement string `json:"placement"` // "static" or "adaptive"
	Protocol  string `json:"protocol"`
	Nodes     int    `json:"nodes"`
	Buckets   int    `json:"buckets"`
	Keys      int    `json:"keys"`
	Requests  int    `json:"requests"`
	// VirtualMS is the trace's simulated duration.
	VirtualMS float64 `json:"virtual_ms"`

	// Ops carries the per-kind latency digests (grid-valued deterministic
	// quantiles, exact mean/max), in sorted kind order.
	Ops []kvstore.OpSummary `json:"ops"`
	// HotKeys are the trace's busiest keys by request count.
	HotKeys []kvstore.HotKey `json:"hot_keys"`
	// PerKey carries each hot key's served-latency digest, in HotKeys
	// order.
	PerKey []kvstore.KeyLatency `json:"per_key"`

	Served         int64 `json:"served"`
	Dropped        int64 `json:"dropped"`
	IdleTicks      int64 `json:"idle_ticks"`
	RemoteFetches  int64 `json:"remote_fetches"`
	HomeMigrations int64 `json:"home_migrations"`

	// Checksum is the final-table fold (must equal the serial oracle), and
	// Fingerprint digests the run's TimingLog + stats.
	Checksum    uint64 `json:"checksum"`
	Fingerprint string `json:"fingerprint"`
}

// serveConfig is the experiment's pinned workload: a 4-node cluster serving
// a 2-phase Zipf trace from node-0-misplaced homes, loaded to the static
// placement's queueing knee.
func serveConfig() kvstore.Config {
	return kvstore.Config{
		Nodes:         4,
		Buckets:       16,
		Keys:          512,
		Requests:      1600,
		Epochs:        8,
		Phases:        2,
		Seed:          11,
		MisplaceHomes: true,
	}
}

// serveMeasure runs one placement of the pinned workload.
func serveMeasure(adaptive bool) (ServeResult, error) {
	cfg := serveConfig()
	cfg.AdaptiveHomes = adaptive
	res, err := kvstore.Run(cfg)
	if err != nil {
		return ServeResult{}, err
	}
	placement := "static"
	if adaptive {
		placement = "adaptive"
	}
	return ServeResult{
		Placement:      placement,
		Protocol:       "entry_mw",
		Nodes:          cfg.Nodes,
		Buckets:        cfg.Buckets,
		Keys:           cfg.Keys,
		Requests:       cfg.Requests,
		VirtualMS:      float64(res.Elapsed) / 1e6,
		Ops:            res.Ops,
		HotKeys:        res.HotKeys,
		PerKey:         res.PerKey,
		Served:         res.Served,
		Dropped:        res.Dropped,
		IdleTicks:      res.IdleTicks,
		RemoteFetches:  res.Stats.RemoteFetches,
		HomeMigrations: res.Stats.HomeMigrations,
		Checksum:       res.Checksum,
		Fingerprint:    res.System.Fingerprint(),
	}, nil
}

// ServeSuite runs the serve experiment: the same trace under static and
// adaptive placement, a serial-oracle checksum check, and a full replay of
// the adaptive run asserting the latency histograms are bit-identical.
// The returned replayIdentical is that replay check's verdict.
func ServeSuite() (static, adaptive ServeResult, replayIdentical bool, err error) {
	static, err = serveMeasure(false)
	if err != nil {
		return
	}
	adaptive, err = serveMeasure(true)
	if err != nil {
		return
	}
	oracle, _, err := kvstore.ServeSerial(serveConfig())
	if err != nil {
		return
	}
	for _, r := range []ServeResult{static, adaptive} {
		if r.Checksum != oracle {
			err = fmt.Errorf("serve: %s checksum %#x does not match the serial oracle %#x",
				r.Placement, r.Checksum, oracle)
			return
		}
	}
	replay, err := serveMeasure(true)
	if err != nil {
		return
	}
	replayIdentical = slices.Equal(replay.Ops, adaptive.Ops) &&
		slices.Equal(replay.PerKey, adaptive.PerKey) &&
		replay.Fingerprint == adaptive.Fingerprint
	return
}

// ServeP99 extracts the get-latency p99 from a result (0 if absent), the
// experiment's headline number.
func ServeP99(r ServeResult) dsmpm2.Duration {
	for _, o := range r.Ops {
		if o.Kind == "get" {
			return o.P99
		}
	}
	return 0
}
