// Package lu implements a blocked, unpivoted LU decomposition kernel in the
// SPLASH-2 style (the benchmark family Section 5 names for the paper's
// planned evaluation). Its sharing pattern differs from the other kernels:
// at every elimination step k, the pivot row k — owned by one node — is
// read by every node still holding rows below k, so each step broadcasts a
// freshly written row through the DSM, and the set of readers shrinks as
// the factorization proceeds. Barriers separate the steps.
package lu

import (
	"fmt"
	"math"
	"math/rand"

	"dsmpm2"
)

// Config parameterizes a run.
type Config struct {
	// N is the matrix dimension.
	N int
	// Nodes is the cluster size; rows are dealt round-robin so every node
	// participates until the end of the factorization.
	Nodes int
	// Network selects the interconnect: a profile or a per-link topology.
	Network dsmpm2.Topology
	// Protocol is the consistency protocol under test.
	Protocol string
	// Seed drives matrix contents and the simulation.
	Seed int64
	// MisplaceHomes homes every matrix row on node 0 instead of on its
	// round-robin owner (the adapt experiment's bad static placement).
	MisplaceHomes bool
	// AdaptiveHomes enables the access-pattern profiler and dynamic home
	// migration.
	AdaptiveHomes bool
}

// Result reports a run's outcome.
type Result struct {
	Checksum float64
	Elapsed  dsmpm2.Time
	Stats    dsmpm2.Stats
	System   *dsmpm2.System
}

// Matrix builds the deterministic random input matrix for a seed. It is
// diagonally dominant so the unpivoted factorization stays stable.
func Matrix(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = float64(rng.Intn(9) + 1)
		}
		a[i][i] += float64(10 * n) // dominance
	}
	return a
}

func checksum(a [][]float64) float64 {
	sum := 0.0
	for i := range a {
		for j := range a[i] {
			sum += a[i][j] * float64(1+((i*31+j)%7))
		}
	}
	return sum
}

// opCost is the CPU cost charged per row-element update.
const opCost = 500 * dsmpm2.Nanosecond

// Run executes the distributed factorization and returns the result.
func Run(cfg Config) (Result, error) {
	if cfg.N < 2 || cfg.Nodes < 1 {
		return Result{}, fmt.Errorf("lu: invalid config %+v", cfg)
	}
	sys, err := dsmpm2.New(dsmpm2.Config{
		Nodes:         cfg.Nodes,
		Network:       cfg.Network,
		Protocol:      cfg.Protocol,
		Seed:          cfg.Seed,
		AdaptiveHomes: cfg.AdaptiveHomes,
	})
	if err != nil {
		return Result{}, err
	}
	n := cfg.N
	rowBytes := n * 8
	ownerOf := func(row int) int { return row % cfg.Nodes } // round-robin deal

	var attr *dsmpm2.Attr
	if cfg.MisplaceHomes {
		attr = &dsmpm2.Attr{Protocol: -1, Home: 0}
	}
	rows := make([]dsmpm2.Addr, n)
	for i := 0; i < n; i++ {
		rows[i] = sys.MustMalloc(ownerOf(i), rowBytes, attr)
	}
	a := Matrix(n, cfg.Seed)
	for node := 0; node < cfg.Nodes; node++ {
		node := node
		sys.Spawn(node, fmt.Sprintf("init%d", node), func(t *dsmpm2.Thread) {
			for i := 0; i < n; i++ {
				if ownerOf(i) != node {
					continue
				}
				for j := 0; j < n; j++ {
					t.WriteUint64(rows[i]+dsmpm2.Addr(8*j), math.Float64bits(a[i][j]))
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
		sys.Spawn(node, fmt.Sprintf("lu%d", node), func(t *dsmpm2.Thread) {
			readRow := func(addr dsmpm2.Addr, j int) float64 {
				return math.Float64frombits(t.ReadUint64(addr + dsmpm2.Addr(8*j)))
			}
			writeRow := func(addr dsmpm2.Addr, j int, v float64) {
				t.WriteUint64(addr+dsmpm2.Addr(8*j), math.Float64bits(v))
			}
			for k := 0; k < n; k++ {
				// Every node reads the pivot row (a broadcast through
				// the DSM), then updates its own rows below k.
				pivot := rows[k]
				pkk := readRow(pivot, k)
				for i := k + 1; i < n; i++ {
					if ownerOf(i) != node {
						continue
					}
					m := readRow(rows[i], k) / pkk
					writeRow(rows[i], k, m)
					for j := k + 1; j < n; j++ {
						writeRow(rows[i], j, readRow(rows[i], j)-m*readRow(pivot, j))
					}
					t.Compute(dsmpm2.Duration(n-k) * opCost)
				}
				t.Barrier(bar)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	res := Result{Elapsed: sys.Now(), Stats: sys.Stats(), System: sys}
	sys.Spawn(0, "checksum", func(t *dsmpm2.Thread) {
		out := make([][]float64, n)
		for i := 0; i < n; i++ {
			out[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				out[i][j] = math.Float64frombits(t.ReadUint64(rows[i] + dsmpm2.Addr(8*j)))
			}
		}
		res.Checksum = checksum(out)
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}
