// Package jacobi implements a barrier-phased Jacobi stencil kernel in the
// SPLASH-2 style — the application class the paper names as the next step of
// its evaluation (Section 5). Each node owns a block of rows homed on it;
// every iteration reads the neighbouring blocks' boundary rows and writes
// its own block, with a cluster-wide barrier between iterations.
//
// The sharing pattern (mostly-local writes, narrow read sharing at block
// boundaries) is where home-based release consistency (hbrc_mw) shines
// against sequential consistency's page ping-pong, making this the natural
// ablation workload for the protocol comparison.
package jacobi

import (
	"fmt"
	"math"

	"dsmpm2"
)

// Config parameterizes a run.
type Config struct {
	// N is the grid dimension (N x N interior points plus fixed borders).
	N int
	// Iterations is the number of Jacobi sweeps.
	Iterations int
	// Nodes is the cluster size; rows are block-partitioned over nodes.
	Nodes int
	// Network selects the interconnect.
	Network *dsmpm2.NetworkProfile
	// Topology, when set, overrides Network with per-link cost profiles
	// (hierarchical clusters, arbitrary matrices).
	Topology dsmpm2.Topology
	// Protocol is the consistency protocol under test.
	Protocol string
	// Seed drives the simulation.
	Seed int64
	// CellCost is the CPU cost charged per cell update.
	CellCost dsmpm2.Duration
	// Unbatched selects the one-envelope-per-operation communication path
	// (A/B baseline for the comm experiment).
	Unbatched bool
	// MisplaceHomes homes every grid row on node 0 instead of on the node
	// that writes it — the deliberately bad static placement the adapt
	// experiment starts from.
	MisplaceHomes bool
	// Recovery tunes the retry timing of fault-injected runs (base timeout,
	// exponential backoff, seeded jitter); forwarded to
	// dsmpm2.Config.Recovery.
	Recovery dsmpm2.RecoveryTuning
	// AdaptiveHomes enables the access-pattern profiler and dynamic home
	// migration: misplaced rows move onto their writers at barrier epochs.
	AdaptiveHomes bool
	// Trace enables post-mortem span recording (dsmpm2.Config.Trace); the
	// auto-tuner's recording run uses it.
	Trace bool

	// FaultPlan, when set, selects the restart-aware variant of the
	// kernel: all grid pages are homed on node 0 (a home-based protocol
	// then keeps committed iterations on a protected node), workers
	// checkpoint a local iteration counter after flushing their diffs,
	// and a crashed node's worker is respawned on restart, redoing at
	// most one iteration. Plans must protect node 0 (it is the barrier
	// manager and the reliable home). Event times are offsets from the
	// start of the compute phase.
	FaultPlan *dsmpm2.FaultPlan
}

// Result reports a run's outcome.
type Result struct {
	Checksum float64
	Elapsed  dsmpm2.Time
	Stats    dsmpm2.Stats
	System   *dsmpm2.System
	// Faults and Recovery are the fault-injection counters (zero when no
	// FaultPlan was configured).
	Faults   dsmpm2.FaultStats
	Recovery dsmpm2.RecoveryStats
}

// boundary returns the fixed boundary value for grid edge cells.
func boundary(i, j, n int) float64 {
	if i == 0 {
		return 100 // hot top edge
	}
	if i == n+1 || j == 0 || j == n+1 {
		return 0
	}
	return 0
}

// SolveSerial runs the same computation in plain Go and returns the
// checksum, as the reference for correctness tests.
func SolveSerial(n, iterations int) float64 {
	cur := makeGrid(n)
	next := makeGrid(n)
	for it := 0; it < iterations; it++ {
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				next[i][j] = 0.25 * (cur[i-1][j] + cur[i+1][j] + cur[i][j-1] + cur[i][j+1])
			}
		}
		cur, next = next, cur
	}
	return checksum(cur, n)
}

func makeGrid(n int) [][]float64 {
	g := make([][]float64, n+2)
	for i := range g {
		g[i] = make([]float64, n+2)
		for j := range g[i] {
			g[i][j] = boundary(i, j, n)
		}
	}
	return g
}

func checksum(g [][]float64, n int) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			sum += g[i][j]
		}
	}
	return sum
}

// Run executes the distributed kernel and returns the result.
func Run(cfg Config) (Result, error) {
	if cfg.N < 2 || cfg.Nodes < 1 || cfg.Iterations < 1 {
		return Result{}, fmt.Errorf("jacobi: invalid config %+v", cfg)
	}
	if cfg.CellCost == 0 {
		cfg.CellCost = 100 // 0.1us per cell
	}
	sys, err := dsmpm2.New(dsmpm2.Config{
		Nodes:         cfg.Nodes,
		Network:       cfg.Network,
		Topology:      cfg.Topology,
		Protocol:      cfg.Protocol,
		Seed:          cfg.Seed,
		UnbatchedComm: cfg.Unbatched,
		AdaptiveHomes: cfg.AdaptiveHomes,
		Recovery:      cfg.Recovery,
		Trace:         cfg.Trace,
	})
	if err != nil {
		return Result{}, err
	}
	if cfg.FaultPlan != nil {
		return runRecoverable(cfg, sys)
	}
	n := cfg.N
	rowBytes := (n + 2) * 8

	// Two grids, each distributed row-block by row-block so every block is
	// homed on the node that writes it — unless MisplaceHomes parks
	// everything on node 0 for the adapt experiment.
	var attr *dsmpm2.Attr
	if cfg.MisplaceHomes {
		attr = &dsmpm2.Attr{Protocol: -1, Home: 0}
	}
	grids := [2][]dsmpm2.Addr{make([]dsmpm2.Addr, n+2), make([]dsmpm2.Addr, n+2)}
	ownerOf := func(row int) int {
		if row == 0 {
			return 0
		}
		if row == n+1 {
			return cfg.Nodes - 1
		}
		return (row - 1) * cfg.Nodes / n
	}
	for g := 0; g < 2; g++ {
		for row := 0; row <= n+1; row++ {
			grids[g][row] = sys.MustMalloc(ownerOf(row), rowBytes, attr)
		}
	}

	// Initialize both grids with boundary values from their owner nodes.
	for node := 0; node < cfg.Nodes; node++ {
		node := node
		sys.Spawn(node, fmt.Sprintf("init%d", node), func(t *dsmpm2.Thread) {
			for g := 0; g < 2; g++ {
				for row := 0; row <= n+1; row++ {
					if ownerOf(row) != node {
						continue
					}
					for j := 0; j <= n+1; j++ {
						v := boundary(row, j, n)
						t.WriteUint64(grids[g][row]+dsmpm2.Addr(8*j), math.Float64bits(v))
					}
				}
			}
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	bar := sys.NewBarrier(cfg.Nodes)
	for node := 0; node < cfg.Nodes; node++ {
		node := node
		sys.Spawn(node, fmt.Sprintf("jacobi%d", node), func(t *dsmpm2.Thread) {
			cur, next := 0, 1
			for it := 0; it < cfg.Iterations; it++ {
				for row := 1; row <= n; row++ {
					if ownerOf(row) != node {
						continue
					}
					up, down := grids[cur][row-1], grids[cur][row+1]
					mid := grids[cur][row]
					dst := grids[next][row]
					for j := 1; j <= n; j++ {
						a := math.Float64frombits(t.ReadUint64(up + dsmpm2.Addr(8*j)))
						b := math.Float64frombits(t.ReadUint64(down + dsmpm2.Addr(8*j)))
						c := math.Float64frombits(t.ReadUint64(mid + dsmpm2.Addr(8*(j-1))))
						d := math.Float64frombits(t.ReadUint64(mid + dsmpm2.Addr(8*(j+1))))
						t.WriteUint64(dst+dsmpm2.Addr(8*j), math.Float64bits(0.25*(a+b+c+d)))
					}
					t.Compute(dsmpm2.Duration(n) * cfg.CellCost)
				}
				t.Barrier(bar)
				cur, next = next, cur
			}
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	// Collect the checksum from node 0, reading through the DSM.
	final := cfg.Iterations % 2
	res := Result{Elapsed: sys.Now(), Stats: sys.Stats(), System: sys}
	sys.Spawn(0, "checksum", func(t *dsmpm2.Thread) {
		sum := 0.0
		for row := 1; row <= n; row++ {
			for j := 1; j <= n; j++ {
				sum += math.Float64frombits(t.ReadUint64(grids[final][row] + dsmpm2.Addr(8*j)))
			}
		}
		res.Checksum = sum
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// runRecoverable is the restart-aware variant of the kernel, used when a
// FaultPlan is configured. Structural differences from the plain kernel:
//
//   - every grid row is homed on node 0, the protected node, so a
//     home-based protocol (hbrc_mw, entry_mw) keeps all committed
//     iterations on a node the plan never kills;
//   - init and each sweep are numbered work units separated by identified
//     barrier generations (BarrierAs), so a restarted worker can rejoin at
//     exactly the generation the cluster is in;
//   - before checkpointing a completed unit, the worker flushes its diffs
//     home (Thread.Flush): the checkpoint never claims work whose
//     modifications would die with the node. A crash therefore costs at
//     most one redone unit, and redone units are idempotent — they
//     recompute the same values from the same committed inputs.
func runRecoverable(cfg Config, sys *dsmpm2.System) (Result, error) {
	n := cfg.N
	rowBytes := (n + 2) * 8
	home0 := &dsmpm2.Attr{Protocol: -1, Home: 0}

	grids := [2][]dsmpm2.Addr{make([]dsmpm2.Addr, n+2), make([]dsmpm2.Addr, n+2)}
	ownerOf := func(row int) int {
		if row == 0 {
			return 0
		}
		if row == n+1 {
			return cfg.Nodes - 1
		}
		return (row - 1) * cfg.Nodes / n
	}
	for g := 0; g < 2; g++ {
		for row := 0; row <= n+1; row++ {
			grids[g][row] = sys.MustMalloc(0, rowBytes, home0)
		}
	}

	// lastDone[node] is the node's local checkpoint: the highest work unit
	// whose modifications are committed at the home. Unit 0 is grid
	// initialization; unit k is sweep k-1. In a real system this counter
	// would sit in the node's stable storage.
	lastDone := make([]int, cfg.Nodes)
	for i := range lastDone {
		lastDone[i] = -1
	}
	units := cfg.Iterations + 1
	bar := sys.NewBarrier(cfg.Nodes)

	// finishedAt is the computation's true end: the latest instant a worker
	// completed its final unit. sys.Now() after Run would instead report
	// when the event queue drained, which a fault plan with events past the
	// workload's end (an MTBF horizon, a late heal) inflates arbitrarily.
	var finishedAt dsmpm2.Time
	runWorker := func(t *dsmpm2.Thread, node, startUnit int) {
		for unit := startUnit; unit < units; unit++ {
			if unit == 0 {
				// Init: boundary values into both grids' own rows.
				for g := 0; g < 2; g++ {
					for row := 0; row <= n+1; row++ {
						if ownerOf(row) != node {
							continue
						}
						for j := 0; j <= n+1; j++ {
							v := boundary(row, j, n)
							t.WriteUint64(grids[g][row]+dsmpm2.Addr(8*j), math.Float64bits(v))
						}
					}
				}
			} else {
				it := unit - 1
				cur, next := it%2, (it+1)%2
				for row := 1; row <= n; row++ {
					if ownerOf(row) != node {
						continue
					}
					up, down := grids[cur][row-1], grids[cur][row+1]
					mid := grids[cur][row]
					dst := grids[next][row]
					for j := 1; j <= n; j++ {
						a := math.Float64frombits(t.ReadUint64(up + dsmpm2.Addr(8*j)))
						b := math.Float64frombits(t.ReadUint64(down + dsmpm2.Addr(8*j)))
						c := math.Float64frombits(t.ReadUint64(mid + dsmpm2.Addr(8*(j-1))))
						d := math.Float64frombits(t.ReadUint64(mid + dsmpm2.Addr(8*(j+1))))
						t.WriteUint64(dst+dsmpm2.Addr(8*j), math.Float64bits(0.25*(a+b+c+d)))
					}
					t.Compute(dsmpm2.Duration(n) * cfg.CellCost)
				}
			}
			t.Flush() // commit home before the checkpoint claims the unit
			lastDone[node] = unit
			t.BarrierAs(bar, node, unit)
		}
		if now := t.Now(); now > finishedAt {
			finishedAt = now
		}
	}

	if err := sys.InjectFaults(cfg.FaultPlan, dsmpm2.FaultOptions{
		OnRestart: func(node int) {
			done := lastDone[node]
			sys.Spawn(node, fmt.Sprintf("jacobi%d.r", node), func(t *dsmpm2.Thread) {
				if done >= 0 {
					// The crash may have hit between the checkpoint and
					// the barrier: re-arrive for the checkpointed
					// generation (idempotent — a duplicate arrival just
					// takes over the dead predecessor's slot).
					t.BarrierAs(bar, node, done)
				}
				runWorker(t, node, done+1)
			})
		},
	}); err != nil {
		return Result{}, err
	}

	for node := 0; node < cfg.Nodes; node++ {
		node := node
		sys.Spawn(node, fmt.Sprintf("jacobi%d", node), func(t *dsmpm2.Thread) {
			runWorker(t, node, 0)
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	final := cfg.Iterations % 2
	res := Result{Elapsed: finishedAt, Stats: sys.Stats(), System: sys,
		Faults: sys.FaultStats(), Recovery: sys.RecoveryStats()}
	sys.Spawn(0, "checksum", func(t *dsmpm2.Thread) {
		sum := 0.0
		for row := 1; row <= n; row++ {
			for j := 1; j <= n; j++ {
				sum += math.Float64frombits(t.ReadUint64(grids[final][row] + dsmpm2.Addr(8*j)))
			}
		}
		res.Checksum = sum
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}
