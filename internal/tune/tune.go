// Package tune is the what-if protocol auto-tuner: run a workload under its
// as-recorded baseline cell, re-simulate the whole configuration search
// space — {protocol × topology × home placement} — as parallel host-level
// runs, and rank the cells by virtual elapsed time.
//
// The point of a deterministic simulator is exactly that this is possible:
// every cell is an independent dsmpm2.System replaying the identical
// workload (same seed, same operation sequence), so the grid's numbers are
// exact re-simulations, not noisy re-measurements, and two sweeps are
// bit-identical whatever the host parallelism.
package tune

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/kvstore"
	"dsmpm2/internal/apps/matmul"
	"dsmpm2/internal/protocols"
)

// The grid axes. Protocols is every registered protocol, in registration
// order.
var (
	Protocols = func() []string {
		reg, _ := protocols.NewRegistry()
		return reg.Names()
	}()
	Topologies = []string{"uniform", "hier"}
	Placements = []string{"static", "misplaced", "adaptive"}
	Workloads  = []string{"jacobi", "matmul", "serve"}
)

// Cell is one grid point: a complete platform configuration for the
// recorded workload.
type Cell struct {
	Protocol  string `json:"protocol"`
	Topology  string `json:"topology"`
	Placement string `json:"placement"`
}

// Key is the cell's canonical identity and the final ranking tiebreak.
func (c Cell) Key() string {
	return c.Protocol + "/" + c.Topology + "/" + c.Placement
}

// CellResult is one re-simulated cell. A cell whose run fails (error or
// panic) or produces a wrong checksum is kept in the report — marked
// incorrect and ranked after every correct cell — because "this protocol
// cannot run this workload" is itself a tuning result.
type CellResult struct {
	Cell
	// Rank is 1-based within the sweep's ranking; the baseline has none.
	Rank    int    `json:"rank"`
	Correct bool   `json:"correct"`
	Err     string `json:"error,omitempty"`
	// VirtualMS is the workload's simulated duration — the ranking's
	// primary key.
	VirtualMS      float64 `json:"virtual_ms"`
	Envelopes      int64   `json:"envelopes"`
	RemoteFetches  int64   `json:"remote_fetches"`
	HomeMigrations int64   `json:"home_migrations"`
	// P99 is the get-latency tail where the workload keeps histograms
	// (serve); 0 elsewhere.
	P99 dsmpm2.Duration `json:"p99_ns,omitempty"`
}

// Options tunes a sweep.
type Options struct {
	// Grid subsets: nil/empty selects every value of the axis. Unknown and
	// repeated values are rejected by Sweep with an error naming the valid
	// set or the repeat.
	Protocols  []string
	Topologies []string
	Placements []string
}

// Report is a completed sweep: every cell ranked and the winner.
type Report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	GridSize int    `json:"grid_size"`
	// Baseline is the workload's as-recorded cell, which a recommendation
	// must beat; Winner is the top-ranked correct cell.
	Baseline CellResult `json:"baseline"`
	Winner   CellResult `json:"winner"`
	// Cells is the full grid in rank order.
	Cells []CellResult `json:"cells"`
}

// workload is one tunable application: a pinned configuration (so the grid
// re-simulates a known quantity of work) plus the cell-to-config mapping.
type workload struct {
	// defaultProtocol is the as-recorded protocol of the baseline cell.
	defaultProtocol string
	// run executes one cell.
	run func(seed int64, c Cell) (CellResult, error)
}

// baselineCell is the as-recorded configuration every workload starts
// from: uniform network and deliberately misplaced static homes — the
// placement story of the adapt/serve experiments.
func (w workload) baselineCell() Cell {
	return Cell{Protocol: w.defaultProtocol, Topology: "uniform", Placement: "misplaced"}
}

// hierTopology is the sweep's two-cluster heterogeneous topology.
func hierTopology(nodes int) dsmpm2.Topology {
	return dsmpm2.HierarchicalTopology(
		dsmpm2.EvenClusters(nodes, 2), dsmpm2.BIPMyrinet, dsmpm2.TCPFastEthernet)
}

// The pinned workload dimensions: small enough that a full 66-cell grid
// sweeps in seconds, large enough that placement and protocol choices
// separate clearly.
const (
	jacobiN, jacobiIters, jacobiNodes = 16, 4, 8
	matmulN, matmulNodes              = 12, 8
	serveNodes, serveBuckets          = 4, 16
	serveKeys, serveRequests          = 256, 500
	serveEpochs, servePhases          = 5, 2
)

func jacobiWorkload() workload {
	return workload{
		defaultProtocol: "li_hudak",
		run: func(seed int64, c Cell) (CellResult, error) {
			cfg := jacobi.Config{
				N: jacobiN, Iterations: jacobiIters, Nodes: jacobiNodes,
				Protocol: c.Protocol, Seed: seed,
			}
			applyCell(c, jacobiNodes, &cfg.Network,
				&cfg.MisplaceHomes, &cfg.AdaptiveHomes)
			res, err := jacobi.Run(cfg)
			if err != nil {
				return CellResult{Cell: c}, err
			}
			return cellMetrics(c, int64(res.Elapsed), res.Stats,
				res.Checksum == jacobi.SolveSerial(jacobiN, jacobiIters), 0), nil
		},
	}
}

func matmulWorkload() workload {
	return workload{
		defaultProtocol: "li_hudak",
		run: func(seed int64, c Cell) (CellResult, error) {
			cfg := matmul.Config{
				N: matmulN, Nodes: matmulNodes, Protocol: c.Protocol, Seed: seed,
			}
			applyCell(c, matmulNodes, &cfg.Network,
				&cfg.MisplaceHomes, &cfg.AdaptiveHomes)
			res, err := matmul.Run(cfg)
			if err != nil {
				return CellResult{Cell: c}, err
			}
			return cellMetrics(c, int64(res.Elapsed), res.Stats,
				res.Checksum == matmul.SolveSerial(matmulN, seed), 0), nil
		},
	}
}

func serveWorkload() workload {
	return workload{
		defaultProtocol: "entry_mw",
		run: func(seed int64, c Cell) (CellResult, error) {
			cfg := kvstore.Config{
				Nodes: serveNodes, Buckets: serveBuckets, Keys: serveKeys,
				Requests: serveRequests, Epochs: serveEpochs, Phases: servePhases,
				Protocol: c.Protocol, Seed: seed,
			}
			applyCell(c, serveNodes, &cfg.Network,
				&cfg.MisplaceHomes, &cfg.AdaptiveHomes)
			res, err := kvstore.Run(cfg)
			if err != nil {
				return CellResult{Cell: c}, err
			}
			oracle, _, err := kvstore.ServeSerial(cfg)
			if err != nil {
				return CellResult{Cell: c}, err
			}
			return cellMetrics(c, int64(res.Elapsed), res.Stats,
				res.Checksum == oracle, res.Op("get").P99), nil
		},
	}
}

// applyCell translates the cell's axes onto an app config's shared knobs.
// "static" keeps the app's natural homes; "misplaced" parks them on node 0;
// "adaptive" misplaces them and lets the profiler re-home at epoch barriers
// (the placement vocabulary of the adapt and serve experiments).
func applyCell(c Cell, nodes int, network *dsmpm2.Topology, misplace, adaptive *bool) {
	*network = dsmpm2.BIPMyrinet
	if c.Topology == "hier" {
		*network = hierTopology(nodes)
	}
	*misplace = c.Placement == "misplaced" || c.Placement == "adaptive"
	*adaptive = c.Placement == "adaptive"
}

// cellMetrics folds one run's outcome into a CellResult.
func cellMetrics(c Cell, elapsed int64, st dsmpm2.Stats, correct bool, p99 dsmpm2.Duration) CellResult {
	return CellResult{
		Cell:           c,
		Correct:        correct,
		VirtualMS:      float64(elapsed) / 1e6,
		Envelopes:      st.Envelopes,
		RemoteFetches:  st.RemoteFetches,
		HomeMigrations: st.HomeMigrations,
		P99:            p99,
	}
}

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (workload, error) {
	switch name {
	case "jacobi":
		return jacobiWorkload(), nil
	case "matmul":
		return matmulWorkload(), nil
	case "serve":
		return serveWorkload(), nil
	}
	return workload{}, fmt.Errorf("tune: unknown workload %q (valid: %v)", name, Workloads)
}

// runCellGuarded runs one cell, converting a panic anywhere inside the
// simulated run into an error: a protocol that cannot execute the workload
// must become a ranked incorrect cell, never take down the sweep.
func runCellGuarded(w workload, seed int64, c Cell) (res CellResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.run(seed, c)
}

// subset returns the validated axis subset: nil/empty keeps every value,
// anything not in valid is an error naming the valid set, and a value named
// twice is an error (it would rank one cell twice).
func subset(axis string, want, valid []string) ([]string, error) {
	if len(want) == 0 {
		return valid, nil
	}
	for i, v := range want {
		if !slices.Contains(valid, v) {
			return nil, fmt.Errorf("tune: unknown %s %q (valid: %v)", axis, v, valid)
		}
		if slices.Contains(want[:i], v) {
			return nil, fmt.Errorf("tune: %s %q repeated", axis, v)
		}
	}
	return want, nil
}

// buildGrid enumerates the sweep's cells in canonical axis order.
func buildGrid(opts Options) ([]Cell, error) {
	protos, err := subset("protocol", opts.Protocols, Protocols)
	if err != nil {
		return nil, err
	}
	topos, err := subset("topology", opts.Topologies, Topologies)
	if err != nil {
		return nil, err
	}
	places, err := subset("placement", opts.Placements, Placements)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, p := range protos {
		for _, t := range topos {
			for _, pl := range places {
				cells = append(cells, Cell{Protocol: p, Topology: t, Placement: pl})
			}
		}
	}
	return cells, nil
}

// rankLess is the ranking's total order: correct cells first by virtual
// elapsed, then fewer envelopes, fewer remote fetches, lower p99, and
// finally the cell key, so the order is deterministic however the cells
// were computed. Incorrect cells sort after every correct one, by key.
func rankLess(a, b CellResult) bool {
	if a.Correct != b.Correct {
		return a.Correct
	}
	if !a.Correct {
		return a.Key() < b.Key()
	}
	if a.VirtualMS != b.VirtualMS {
		return a.VirtualMS < b.VirtualMS
	}
	if a.Envelopes != b.Envelopes {
		return a.Envelopes < b.Envelopes
	}
	if a.RemoteFetches != b.RemoteFetches {
		return a.RemoteFetches < b.RemoteFetches
	}
	if a.P99 != b.P99 {
		return a.P99 < b.P99
	}
	return a.Key() < b.Key()
}

// Sweep runs the workload's baseline cell, re-simulates the grid on one
// host goroutine per CPU (each cell an independent deterministic System),
// and ranks the results into a Report. The ranking is a pure function of
// the workload, the seed and the grid subset: host scheduling cannot change
// a single byte of it.
func Sweep(workload string, seed int64, opts Options) (*Report, error) {
	return sweep(workload, seed, opts, runtime.NumCPU())
}

// sweep is Sweep on a pool of the given number of workers.
func sweep(name string, seed int64, opts Options, workers int) (*Report, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	cells, err := buildGrid(opts)
	if err != nil {
		return nil, err
	}
	base, err := runCellGuarded(w, seed, w.baselineCell())
	if err != nil {
		return nil, fmt.Errorf("tune: baseline run of %s: %w", name, err)
	}

	// The pool writes into index-addressed slots: completion order is
	// host-dependent, the result layout is not.
	results := make([]CellResult, len(cells))
	work := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < min(workers, len(cells)); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res, err := runCellGuarded(w, seed, cells[i])
				if err != nil {
					res = CellResult{Cell: cells[i], Err: err.Error()}
				}
				results[i] = res
			}
		}()
	}
	for i := range cells {
		work <- i
	}
	close(work)
	wg.Wait()

	sort.SliceStable(results, func(i, j int) bool { return rankLess(results[i], results[j]) })
	for i := range results {
		results[i].Rank = i + 1
	}
	rep := &Report{Workload: name, Seed: seed, GridSize: len(cells), Baseline: base, Cells: results}
	if len(results) > 0 && results[0].Correct {
		rep.Winner = results[0]
	}
	return rep, nil
}
