package main

import (
	"fmt"
	"math"
	"sort"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/kvstore"
	"dsmpm2/internal/apps/tsp"
)

// A workload is one set of inputs the benchmark runs. prepare builds the
// inputs and the serial oracle from the seed (untimed: it is what setup_s
// measures) and returns the timed call: nothing but the simulation itself.
type workload struct {
	name    string
	prepare func(seed int64, scale float64) (timedCall, error)
}

type timedCall func() (*outcome, error)

// An outcome is what a finished run leaves behind for the untimed part:
// the systems to read counters from and the oracle check.
type outcome struct {
	ops     int64
	systems []*dsmpm2.System
	// virtP99US overrides the fault-timing p99 (kvserve reports its get p99).
	virtP99US float64
	// verify compares the run's outputs with the oracle and returns how many
	// of its ops are wrong. It may drive the systems further, so the work
	// counts are read before it runs.
	verify func() (failed int64, err error)
}

// BENCHMARK.json and README.md record why each was chosen.
var workloads = []workload{
	{"jacobi", prepareJacobi},         // the hit path
	{"tsp", prepareTSP},               // the kernel path
	{"kvserve", prepareKVServe},       // the serving path: allocation, GC, RPC
	{"faultstorm", prepareFaultstorm}, // the miss path
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled shrinks a size for the in-process smoke test; the benchmark's
// children always run at scale 1.
func scaled(n int, scale float64, lo int) int {
	if v := int(math.Round(float64(n) * scale)); v > lo {
		return v
	}
	return lo
}

// The jacobi grid does not depend on the seed (the app has one fixed
// boundary condition); the seed reaches the simulator only.
func prepareJacobi(seed int64, scale float64) (timedCall, error) {
	cfg := jacobi.Config{
		Nodes:      16,
		N:          scaled(512, math.Sqrt(scale), 32),
		Iterations: scaled(40, scale, 2),
		Protocol:   "hbrc_mw",
		Network:    dsmpm2.BIPMyrinet,
		Seed:       seed,
	}
	want := jacobi.SolveSerial(cfg.N, cfg.Iterations)
	ops := int64(cfg.N) * int64(cfg.N) * int64(cfg.Iterations)
	return func() (*outcome, error) {
		res, err := jacobi.Run(cfg)
		if err != nil {
			return nil, err
		}
		return &outcome{
			ops:     ops,
			systems: []*dsmpm2.System{res.System},
			verify: func() (int64, error) {
				if math.Abs(res.Checksum-want) > 1e-9*math.Abs(want) {
					return ops, fmt.Errorf("jacobi checksum %v, oracle %v", res.Checksum, want)
				}
				return 0, nil
			},
		}, nil
	}, nil
}

// tspInstance is the paper's Figure 4 instance (14 cities, distance seed
// 42). Branch-and-bound work varies 17x across random 14-city instances
// (0.8 M to 13.6 M expansions over distance seeds 42..51), which no
// regression bound could absorb, so the instance is pinned and the seed
// draws the modelled per-expansion CPU cost from 2 us +-5% instead: that
// re-times every bound propagation against the network, so the search
// order and the expansion count do change with the seed, by ~0.01%.
const tspInstance = 42

func prepareTSP(seed int64, scale float64) (timedCall, error) {
	cities := 14
	if scale < 1 {
		cities = scaled(14+int(math.Round(math.Log2(scale))), 1, 7)
	}
	expand := dsmpm2.Duration(1900 + (uint64(seed)*37+63)%201) // seed 1: the app's default 2 us
	want := tsp.SolveSerial(tsp.Distances(cities, tspInstance))
	return func() (*outcome, error) {
		out := &outcome{}
		var failed int64
		var firstErr error
		// Figure 4's two ends: the page-based winner and thread migration.
		for _, proto := range []string{"li_hudak", "migrate_thread"} {
			res, err := tsp.Run(tsp.Config{
				Cities: cities, Nodes: 8, Seed: tspInstance, Protocol: proto,
				Network: dsmpm2.BIPMyrinet, ExpandCost: expand,
			})
			if err != nil {
				return nil, err
			}
			out.systems = append(out.systems, res.System)
			out.ops += res.Expansions
			if res.BestCost != want {
				failed += res.Expansions
				if firstErr == nil {
					firstErr = fmt.Errorf("tsp %s cost %d, oracle %d", proto, res.BestCost, want)
				}
			}
		}
		out.verify = func() (int64, error) { return failed, firstErr }
		return out, nil
	}, nil
}

// kvserveSizing: the store's defaults (open-loop Poisson arrivals every
// 100 us, Zipf 1.3 keys, every page homed on node 0: static placement at the
// queueing knee) but 64 churn phases instead of 2. Each phase draws a fresh
// rank-to-key permutation, and with it which server gets the hottest keys;
// with two draws per run that choice alone moves wall time by a quarter and
// allocations by 3% between seeds, which no regression bound absorbs. 64
// draws average it out (allocations within 0.5% across seeds).
func prepareKVServe(seed int64, scale float64) (timedCall, error) {
	cfg := kvstore.Config{
		Nodes: 8, Buckets: 16, Keys: 512,
		Requests: scaled(120000, scale, 400),
		Epochs:   8, Phases: 64,
		MisplaceHomes: true,
		Seed:          10 + seed,
	}
	want, _, err := kvstore.ServeSerial(cfg)
	if err != nil {
		return nil, err
	}
	ops := int64(cfg.Requests)
	return func() (*outcome, error) {
		res, err := kvstore.Run(cfg)
		if err != nil {
			return nil, err
		}
		return &outcome{
			ops:       ops,
			systems:   []*dsmpm2.System{res.System},
			virtP99US: res.Op("get").P99.Microseconds(),
			verify: func() (int64, error) {
				switch {
				case res.Checksum != want:
					return ops, fmt.Errorf("kvserve checksum %#x, oracle %#x", res.Checksum, want)
				case res.Served+res.Dropped != ops:
					return ops, fmt.Errorf("kvserve served %d + dropped %d of %d requests", res.Served, res.Dropped, ops)
				case res.Dropped > 0:
					return res.Dropped, fmt.Errorf("kvserve dropped %d requests", res.Dropped)
				}
				return 0, nil
			},
		}, nil
	}, nil
}

// faultP99US is the 99th percentile of the fault totals the systems still
// hold (each keeps its most recent 4096 fault timings).
func faultP99US(systems []*dsmpm2.System) float64 {
	var totals []float64
	for _, sys := range systems {
		for _, ft := range sys.Timings().All() {
			totals = append(totals, ft.Total.Microseconds())
		}
	}
	if len(totals) == 0 {
		return 0
	}
	sort.Float64s(totals)
	return totals[(len(totals)-1)*99/100]
}
