// Package tune is the what-if protocol auto-tuner: record one run of a
// workload, then re-simulate the whole configuration search space —
// {protocol × topology × home placement} — as parallel host-level runs, and
// rank the cells by virtual elapsed time.
//
// The point of a deterministic simulator is exactly that this is possible:
// every cell is an independent dsmpm2.System replaying the identical
// workload (same seed, same operation sequence), so the grid's numbers are
// exact re-simulations, not noisy re-measurements, and two sweeps of one
// recording are bit-identical whatever the host parallelism. Cell results
// are cached on disk in a JSON ledger keyed by the recording's digests, so
// a repeated sweep re-runs nothing it has already measured, and the winner
// is fed back to the platform as a dsmpm2.TunedPrior — the adaptive
// protocol's cold-start evidence (see protocols/adaptive.go).
package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/kvstore"
	"dsmpm2/internal/apps/matmul"
)

// The grid axes. Protocols must match the registry (protocols.Register);
// a tune_test cross-checks the list against a live System.
var (
	Protocols = []string{
		"li_hudak", "migrate_thread", "erc_sw", "hbrc_mw", "java_ic",
		"java_pf", "hybrid", "adaptive", "li_fixed", "li_central", "entry_mw",
	}
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

// Key is the cell's canonical identity, used as the cache-ledger key and
// the final ranking tiebreak.
func (c Cell) Key() string {
	return c.Protocol + "/" + c.Topology + "/" + c.Placement
}

// CellResult is one re-simulated cell. A cell whose run fails (error or
// panic) or produces a wrong checksum is kept in the report — marked
// incorrect and ranked after every correct cell — because "this protocol
// cannot run this workload" is itself a tuning result.
type CellResult struct {
	Cell
	// Rank is 1-based within the sweep's ranking; assigned fresh each
	// sweep (cached metrics never carry a stale rank).
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

// metricsEqual reports whether two results carry identical measurements
// (everything but the per-sweep rank).
func metricsEqual(a, b CellResult) bool {
	a.Rank, b.Rank = 0, 0
	return a == b
}

// Recording is the fingerprinted recording run the sweep re-simulates: the
// workload's as-recorded cell, its measured metrics (the sweep's baseline),
// and the digests that key the cache ledger.
type Recording struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// ConfigDigest hashes the canonical description of the pinned workload
	// configuration; WorkloadDigest additionally folds in what the
	// recording run observed (fingerprint, checksum, span count), so a
	// ledger is valid only for byte-identical workload behavior.
	ConfigDigest   string `json:"config_digest"`
	WorkloadDigest string `json:"workload_digest"`
	// Baseline is the recording run's own cell and metrics — the
	// configuration the workload was recorded under, which a recommendation
	// must beat.
	Baseline CellResult `json:"baseline"`
	// Fingerprint is the recording run's trace digest
	// (dsmpm2.System.Fingerprint); Spans counts its recorded trace spans
	// (workloads with span recording only).
	Fingerprint string `json:"fingerprint"`
	Spans       int    `json:"spans,omitempty"`
}

// Options tunes a sweep.
type Options struct {
	// Workers bounds the host-level parallelism; <= 0 uses runtime.NumCPU().
	Workers int
	// CacheDir holds the JSON cell ledgers; empty disables caching.
	CacheDir string
	// Grid subsets: nil/empty selects every value of the axis. Unknown
	// values are rejected by Sweep with an error naming the valid set.
	Protocols  []string
	Topologies []string
	Placements []string
}

// Report is a completed sweep: every cell ranked, the winner, and the
// prior to feed back into dsmpm2.Config.TunedPrior.
type Report struct {
	Workload       string `json:"workload"`
	Seed           int64  `json:"seed"`
	ConfigDigest   string `json:"config_digest"`
	WorkloadDigest string `json:"workload_digest"`
	// GridSize = RanCells + CachedCells: how many cells the sweep ran this
	// time versus served bit-identically from the ledger.
	GridSize    int `json:"grid_size"`
	RanCells    int `json:"ran_cells"`
	CachedCells int `json:"cached_cells"`
	// Baseline is the recording run's own cell; Winner is the top-ranked
	// correct cell; Prior is Winner as a feed-back configuration.
	Baseline CellResult        `json:"baseline"`
	Winner   CellResult        `json:"winner"`
	Prior    dsmpm2.TunedPrior `json:"prior"`
	// Cells is the full grid in rank order.
	Cells []CellResult `json:"cells"`
}

// workload is one tunable application: a pinned configuration (so the grid
// re-simulates a known quantity of work) plus the cell-to-config mapping.
type workload struct {
	name string
	// defaultProtocol is the as-recorded protocol of the baseline cell.
	defaultProtocol string
	// describe renders the canonical pinned configuration for ConfigDigest.
	describe func(seed int64) string
	// run executes one cell; spans > 0 only when rec is set and the app
	// records trace spans.
	run func(seed int64, c Cell, rec bool) (res CellResult, fingerprint string, spans int, err error)
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
		name:            "jacobi",
		defaultProtocol: "li_hudak",
		describe: func(seed int64) string {
			return fmt.Sprintf("jacobi n=%d iters=%d nodes=%d seed=%d",
				jacobiN, jacobiIters, jacobiNodes, seed)
		},
		run: func(seed int64, c Cell, rec bool) (CellResult, string, int, error) {
			cfg := jacobi.Config{
				N: jacobiN, Iterations: jacobiIters, Nodes: jacobiNodes,
				Protocol: c.Protocol, Seed: seed, Trace: rec,
			}
			applyCell(c, jacobiNodes, &cfg.Topology, &cfg.Network,
				&cfg.MisplaceHomes, &cfg.AdaptiveHomes)
			res, err := jacobi.Run(cfg)
			if err != nil {
				return CellResult{Cell: c}, "", 0, err
			}
			out := cellMetrics(c, int64(res.Elapsed), res.Stats,
				res.Checksum == jacobi.SolveSerial(jacobiN, jacobiIters), 0)
			spans := 0
			if rec && res.System.Trace() != nil {
				spans = res.System.Trace().Len()
			}
			return out, res.System.Fingerprint(), spans, nil
		},
	}
}

func matmulWorkload() workload {
	return workload{
		name:            "matmul",
		defaultProtocol: "li_hudak",
		describe: func(seed int64) string {
			return fmt.Sprintf("matmul n=%d nodes=%d seed=%d", matmulN, matmulNodes, seed)
		},
		run: func(seed int64, c Cell, rec bool) (CellResult, string, int, error) {
			cfg := matmul.Config{
				N: matmulN, Nodes: matmulNodes, Protocol: c.Protocol, Seed: seed,
			}
			applyCell(c, matmulNodes, &cfg.Topology, &cfg.Network,
				&cfg.MisplaceHomes, &cfg.AdaptiveHomes)
			res, err := matmul.Run(cfg)
			if err != nil {
				return CellResult{Cell: c}, "", 0, err
			}
			out := cellMetrics(c, int64(res.Elapsed), res.Stats,
				res.Checksum == matmul.SolveSerial(matmulN, seed), 0)
			return out, res.System.Fingerprint(), 0, nil
		},
	}
}

func serveWorkload() workload {
	return workload{
		name:            "serve",
		defaultProtocol: "entry_mw",
		describe: func(seed int64) string {
			return fmt.Sprintf("serve nodes=%d buckets=%d keys=%d requests=%d epochs=%d phases=%d seed=%d",
				serveNodes, serveBuckets, serveKeys, serveRequests, serveEpochs, servePhases, seed)
		},
		run: func(seed int64, c Cell, rec bool) (CellResult, string, int, error) {
			cfg := kvstore.Config{
				Nodes: serveNodes, Buckets: serveBuckets, Keys: serveKeys,
				Requests: serveRequests, Epochs: serveEpochs, Phases: servePhases,
				Protocol: c.Protocol, Seed: seed,
			}
			applyCell(c, serveNodes, &cfg.Topology, &cfg.Network,
				&cfg.MisplaceHomes, &cfg.AdaptiveHomes)
			res, err := kvstore.Run(cfg)
			if err != nil {
				return CellResult{Cell: c}, "", 0, err
			}
			oracle, _, err := kvstore.ServeSerial(cfg)
			if err != nil {
				return CellResult{Cell: c}, "", 0, err
			}
			out := cellMetrics(c, int64(res.Elapsed), res.Stats,
				res.Checksum == oracle, res.Op("get").P99)
			return out, res.System.Fingerprint(), 0, nil
		},
	}
}

// applyCell translates the cell's axes onto an app config's shared knobs.
// "static" keeps the app's natural homes; "misplaced" parks them on node 0;
// "adaptive" misplaces them and lets the profiler re-home at epoch barriers
// (the placement vocabulary of the adapt and serve experiments).
func applyCell(c Cell, nodes int, topo *dsmpm2.Topology, network **dsmpm2.NetworkProfile,
	misplace, adaptive *bool) {
	switch c.Topology {
	case "hier":
		*topo = hierTopology(nodes)
	default:
		*network = dsmpm2.BIPMyrinet
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

// Record drives the recording run: the workload under its as-recorded
// baseline cell, with span tracing where the app supports it, and computes
// the digests that key every later sweep and cache lookup.
func Record(name string, seed int64) (*Recording, error) {
	w, err := lookupWorkload(name)
	if err != nil {
		return nil, err
	}
	if seed == 0 {
		seed = 1
	}
	base := w.baselineCell()
	res, fp, spans, err := runCellGuarded(w, seed, base, true)
	if err != nil {
		return nil, fmt.Errorf("tune: recording run of %s: %w", name, err)
	}
	cfgSum := sha256.Sum256([]byte(w.describe(seed)))
	rec := &Recording{
		Workload:     name,
		Seed:         seed,
		ConfigDigest: hex.EncodeToString(cfgSum[:]),
		Baseline:     res,
		Fingerprint:  fp,
		Spans:        spans,
	}
	wlSum := sha256.Sum256([]byte(rec.ConfigDigest + "|" + fp + "|" + fmt.Sprint(spans)))
	rec.WorkloadDigest = hex.EncodeToString(wlSum[:])
	return rec, nil
}

// runCellGuarded runs one cell, converting a panic anywhere inside the
// simulated run into an error: a protocol that cannot execute the workload
// must become a ranked incorrect cell, never take down the sweep.
func runCellGuarded(w workload, seed int64, c Cell, rec bool) (res CellResult, fp string, spans int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.run(seed, c, rec)
}

// subset returns the validated axis subset: nil/empty keeps every value,
// anything not in valid is an error naming the valid set.
func subset(axis string, want, valid []string) ([]string, error) {
	if len(want) == 0 {
		return valid, nil
	}
	ok := make(map[string]bool, len(valid))
	for _, v := range valid {
		ok[v] = true
	}
	for _, v := range want {
		if !ok[v] {
			return nil, fmt.Errorf("tune: unknown %s %q (valid: %v)", axis, v, valid)
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

// Sweep re-simulates the recording across the grid: cached cells are served
// bit-identically from the ledger, the rest run on a pool of Workers host
// goroutines (each cell an independent deterministic System), and the
// merged results are ranked into a Report. The ranking is a pure function
// of the recording and the grid subset — worker count, cache state and host
// scheduling cannot change a single byte of it.
func Sweep(rec *Recording, opts Options) (*Report, error) {
	w, err := lookupWorkload(rec.Workload)
	if err != nil {
		return nil, err
	}
	cells, err := buildGrid(opts)
	if err != nil {
		return nil, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(cells) {
		workers = len(cells)
	}

	led := loadLedger(opts.CacheDir, rec)
	results := make([]CellResult, len(cells))
	todo := make([]int, 0, len(cells))
	cached := 0
	for i, c := range cells {
		if hit, ok := led.Cells[c.Key()]; ok {
			results[i] = hit
			cached++
		} else {
			todo = append(todo, i)
		}
	}

	// The pool writes into index-addressed slots: completion order is
	// host-dependent, the result layout is not.
	work := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				res, _, _, err := runCellGuarded(w, rec.Seed, cells[i], false)
				if err != nil {
					res = CellResult{Cell: cells[i], Err: err.Error()}
				}
				results[i] = res
			}
		}()
	}
	for _, i := range todo {
		work <- i
	}
	close(work)
	wg.Wait()

	if err := saveLedger(opts.CacheDir, rec, results); err != nil {
		return nil, err
	}

	ranked := append([]CellResult(nil), results...)
	sort.SliceStable(ranked, func(i, j int) bool { return rankLess(ranked[i], ranked[j]) })
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
	rep := &Report{
		Workload:       rec.Workload,
		Seed:           rec.Seed,
		ConfigDigest:   rec.ConfigDigest,
		WorkloadDigest: rec.WorkloadDigest,
		GridSize:       len(cells),
		RanCells:       len(todo),
		CachedCells:    cached,
		Baseline:       rec.Baseline,
		Cells:          ranked,
	}
	if len(ranked) > 0 && ranked[0].Correct {
		rep.Winner = ranked[0]
		rep.Prior = dsmpm2.TunedPrior{
			Protocol:  rep.Winner.Protocol,
			Placement: rep.Winner.Placement,
			Workload:  rec.Workload,
		}
	}
	return rep, nil
}
