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
	"encoding/binary"
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
	// Network selects the interconnect: a profile or a per-link topology
	// (hierarchical clusters, arbitrary matrices).
	Network dsmpm2.Topology
	// Protocol is the consistency protocol under test.
	Protocol string
	// Seed drives the simulation.
	Seed int64
	// MisplaceHomes homes every grid row on node 0 instead of on the node
	// that writes it — the deliberately bad static placement the adapt
	// experiment starts from.
	MisplaceHomes bool
	// AdaptiveHomes enables the access-pattern profiler and dynamic home
	// migration: misplaced rows move onto their writers at barrier epochs.
	AdaptiveHomes bool
	// Trace enables post-mortem span recording (dsmpm2.Config.Trace). A
	// checkpoint carries no spans, and a resumed session runs untraced.
	Trace bool

	// FaultPlan, when set, runs the kernel as a Session, the restart-aware
	// driver: all grid pages are homed on node 0, workers record each unit
	// after flushing its diffs home, and a crashed node's worker is
	// respawned on restart, redoing at most one unit. Plans must protect
	// node 0 (it is the barrier manager and the reliable home). Event times
	// are offsets from the session's construction.
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
	// RedoneUnits and WarmRestarts are a Session's restart accounting: the
	// units restarted nodes redid, and the restarts that resumed from a
	// checkpoint rather than from scratch.
	RedoneUnits  int64
	WarmRestarts int
}

// boundary returns the fixed value of an edge cell in row: the top edge is
// hot, every other edge cold.
func boundary(row int) float64 {
	if row == 0 {
		return 100
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
			g[i][j] = boundary(i)
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

// cellCost is the CPU cost charged per cell update.
const cellCost dsmpm2.Duration = 100 * dsmpm2.Nanosecond

// newSystem checks cfg and builds the system every driver runs on.
func newSystem(cfg Config) (*dsmpm2.System, error) {
	if cfg.N < 2 || cfg.Nodes < 1 || cfg.Iterations < 1 {
		return nil, fmt.Errorf("jacobi: invalid config %+v", cfg)
	}
	return dsmpm2.New(dsmpm2.Config{
		Nodes:         cfg.Nodes,
		Network:       cfg.Network,
		Protocol:      cfg.Protocol,
		Seed:          cfg.Seed,
		AdaptiveHomes: cfg.AdaptiveHomes,
		Trace:         cfg.Trace,
	})
}

// grid is the kernel's shared state, the one stencil both drivers — Run and
// Session — compute through: two (N+2)-row grids of float64 cells, their rows
// block-partitioned over the nodes that write them.
type grid struct {
	n, nodes int
	rows     [2][]dsmpm2.Addr
}

// newGrid allocates both grids, one row at a time: each row from its
// owner's slice and homed there, or with home0 homed on node 0 (from node
// 0's slice too, unless fromOwner).
func newGrid(sys *dsmpm2.System, cfg Config, home0, fromOwner bool) *grid {
	g := &grid{n: cfg.N, nodes: cfg.Nodes}
	var attr *dsmpm2.Attr
	if home0 {
		attr = &dsmpm2.Attr{Protocol: -1, Home: 0}
	}
	for k := range g.rows {
		g.rows[k] = make([]dsmpm2.Addr, g.n+2)
		for row := range g.rows[k] {
			from := 0
			if fromOwner {
				from = g.ownerOf(row)
			}
			g.rows[k][row] = sys.MustMalloc(from, (g.n+2)*8, attr)
		}
	}
	return g
}

// ownerOf returns the node that writes row.
func (g *grid) ownerOf(row int) int {
	if row == 0 {
		return 0
	}
	if row == g.n+1 {
		return g.nodes - 1
	}
	return (row - 1) * g.nodes / g.n
}

// unit performs node's share of one work unit: boundary initialization of
// both grids for unit 0, sweep unit-1 otherwise. Units are idempotent — they
// recompute the same values from the same committed inputs — which is what
// makes redoing them after a crash safe.
func (g *grid) unit(t *dsmpm2.Thread, node, unit int) {
	n := g.n
	if unit == 0 {
		for k := range g.rows {
			for row := 0; row <= n+1; row++ {
				if g.ownerOf(row) != node {
					continue
				}
				for j := 0; j <= n+1; j++ {
					t.WriteUint64(g.rows[k][row]+dsmpm2.Addr(8*j), math.Float64bits(boundary(row)))
				}
			}
		}
		return
	}
	cur, next := g.rows[(unit-1)%2], g.rows[unit%2]
	var buf stretchBuf
	for row := 1; row <= n; row++ {
		if g.ownerOf(row) != node {
			continue
		}
		up, down, mid, dst := cur[row-1], cur[row+1], cur[row], next[row]
		for j := 1; j <= n; j++ {
			if k := stretch(t, &buf, up, down, mid, dst, j, n); k > j {
				j = k - 1
				continue
			}
			a := math.Float64frombits(t.ReadUint64(up + dsmpm2.Addr(8*j)))
			b := math.Float64frombits(t.ReadUint64(down + dsmpm2.Addr(8*j)))
			c := math.Float64frombits(t.ReadUint64(mid + dsmpm2.Addr(8*(j-1))))
			d := math.Float64frombits(t.ReadUint64(mid + dsmpm2.Addr(8*(j+1))))
			t.WriteUint64(dst+dsmpm2.Addr(8*j), math.Float64bits(0.25*(a+b+c+d)))
		}
		t.Compute(dsmpm2.Duration(n) * cellCost)
	}
}

// stretchBuf holds one page stretch's host copies, a page each at most. It
// lives on the worker's stack, so the stretches allocate nothing.
type stretchBuf struct{ up, down, mid, dst [dsmpm2.PageSize]byte }

// stretch sweeps the page stretch of a row from cell j: the longest run of
// cells j..k <= n whose up, down, mid (j-1..k+1) and dst words each stay in
// one page. If every one of those pages hits, it computes the run from host
// copies, writes it with WriteHit and returns k+1; otherwise it writes
// nothing and returns j, and cell j takes the word path. The two paths are
// one computation: a hit run neither faults nor yields and reads only cur
// while it writes next, so nothing can tell it from its word accesses, and
// a miss faults at cell j, in the word path's access order and at its instant.
// Cell j's store goes first, alone: a write-protected dst page (a home page
// after each release) then wastes one computed cell, not the run.
func stretch(t *dsmpm2.Thread, buf *stretchBuf, up, down, mid, dst dsmpm2.Addr, j, n int) int {
	k := min(n, lastInPage(up, j), lastInPage(down, j), lastInPage(dst, j), lastInPage(mid, j-1)-1)
	m := 8 * (k - j + 1)
	if k < j || !t.ReadHit(up+dsmpm2.Addr(8*j), buf.up[:m]) || !t.ReadHit(down+dsmpm2.Addr(8*j), buf.down[:m]) ||
		!t.ReadHit(mid+dsmpm2.Addr(8*(j-1)), buf.mid[:m+16]) {
		return j
	}
	for c := 0; c < m; c += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(buf.up[c:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(buf.down[c:]))
		l := math.Float64frombits(binary.LittleEndian.Uint64(buf.mid[c:]))
		r := math.Float64frombits(binary.LittleEndian.Uint64(buf.mid[c+16:]))
		binary.LittleEndian.PutUint64(buf.dst[c:], math.Float64bits(0.25*(a+b+l+r)))
		if c == 0 && !t.WriteHit(dst+dsmpm2.Addr(8*j), buf.dst[:8]) {
			return j
		}
	}
	if !t.WriteHit(dst+dsmpm2.Addr(8*j), buf.dst[:m]) {
		return j + 1 // unreachable: cell j's page just took a store, and nothing ran since
	}
	return k + 1
}

// lastInPage returns the last cell i >= j of the row at base whose word lies
// in the page of cell j's.
func lastInPage(base dsmpm2.Addr, j int) int {
	return j + (dsmpm2.PageSize-8-int((base+dsmpm2.Addr(8*j))%dsmpm2.PageSize))/8
}

// checksum sums the interior of the grid the last of iterations sweeps wrote,
// reading through the DSM from node 0, into res.
func (g *grid) checksum(sys *dsmpm2.System, iterations int, res Result) (Result, error) {
	final := g.rows[iterations%2]
	sys.Spawn(0, "checksum", func(t *dsmpm2.Thread) {
		sum := 0.0
		for row := 1; row <= g.n; row++ {
			for j := 1; j <= g.n; j++ {
				sum += math.Float64frombits(t.ReadUint64(final[row] + dsmpm2.Addr(8*j)))
			}
		}
		res.Checksum = sum
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// Run executes the distributed kernel and returns the result.
func Run(cfg Config) (Result, error) {
	if cfg.FaultPlan != nil {
		s, err := NewSession(cfg)
		if err != nil {
			return Result{}, err
		}
		if err := s.RunToEnd(); err != nil {
			return Result{}, err
		}
		return s.Result()
	}
	return run(cfg, nil)
}

// run is Run's fault-free driver, with plan injected through
// System.InjectFaults before anything runs. A plan that does nothing leaves
// the run as it was (see TestGoldenConfigRelations).
func run(cfg Config, plan *dsmpm2.FaultPlan) (Result, error) {
	sys, err := newSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := sys.InjectFaults(plan, dsmpm2.FaultOptions{}); err != nil {
		return Result{}, err
	}
	// Every block is homed on the node that writes it — unless MisplaceHomes
	// parks everything on node 0 for the adapt experiment.
	g := newGrid(sys, cfg, cfg.MisplaceHomes, true)
	// Initialize both grids with boundary values from their owner nodes.
	for node := 0; node < cfg.Nodes; node++ {
		sys.Spawn(node, fmt.Sprintf("init%d", node), func(t *dsmpm2.Thread) { g.unit(t, node, 0) })
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	bar := sys.NewBarrier(cfg.Nodes)
	for node := 0; node < cfg.Nodes; node++ {
		sys.Spawn(node, fmt.Sprintf("jacobi%d", node), func(t *dsmpm2.Thread) {
			for unit := 1; unit <= cfg.Iterations; unit++ {
				g.unit(t, node, unit)
				t.Barrier(bar)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return g.checksum(sys, cfg.Iterations, Result{Elapsed: sys.Now(), Stats: sys.Stats(), System: sys})
}
