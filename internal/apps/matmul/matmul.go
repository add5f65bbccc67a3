// Package matmul implements a blocked matrix-multiply kernel in the SPLASH-2
// style (Section 5's planned evaluation class): C = A x B with A and B
// shared read-only (replicated on demand by the protocol) and C's row blocks
// homed on the nodes that compute them. It exercises the read-replication
// path of the protocols with no write sharing at all.
package matmul

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
	// Nodes is the cluster size; C's rows are block-partitioned.
	Nodes int
	// Network selects the interconnect: a profile or a per-link topology.
	Network dsmpm2.Topology
	// Protocol is the consistency protocol under test.
	Protocol string
	// Seed drives matrix contents and the simulation.
	Seed int64
	// MisplaceHomes homes C's rows on node 0 instead of on their computing
	// nodes (the adapt experiment's bad static placement). With no barriers
	// in the kernel the profiler never folds an epoch, so this doubles as
	// the adapt experiment's no-op control.
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

// Matrices builds the deterministic random input matrices for a seed.
func Matrices(n int, seed int64) (a, b [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	a = make([][]float64, n)
	b = make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		b[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = float64(rng.Intn(10))
			b[i][j] = float64(rng.Intn(10))
		}
	}
	return a, b
}

// SolveSerial computes the reference checksum of C = A x B.
func SolveSerial(n int, seed int64) float64 {
	a, b := Matrices(n, seed)
	sum := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			c := 0.0
			for k := 0; k < n; k++ {
				c += a[i][k] * b[k][j]
			}
			sum += c
		}
	}
	return sum
}

// macCost is the CPU cost charged per multiply-accumulate.
const macCost = 10 * dsmpm2.Nanosecond

// Run executes the distributed multiply and returns the result.
func Run(cfg Config) (Result, error) {
	if cfg.N < 1 || cfg.Nodes < 1 {
		return Result{}, fmt.Errorf("matmul: invalid config %+v", cfg)
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

	// A and B are homed on node 0 and replicated to readers on demand; C's
	// rows are homed on their computing nodes (or misplaced onto node 0).
	var cAttr *dsmpm2.Attr
	if cfg.MisplaceHomes {
		cAttr = &dsmpm2.Attr{Protocol: -1, Home: 0}
	}
	aRows := make([]dsmpm2.Addr, n)
	bRows := make([]dsmpm2.Addr, n)
	cRows := make([]dsmpm2.Addr, n)
	ownerOf := func(row int) int { return row * cfg.Nodes / n }
	for i := 0; i < n; i++ {
		aRows[i] = sys.MustMalloc(0, rowBytes, nil)
		bRows[i] = sys.MustMalloc(0, rowBytes, nil)
		cRows[i] = sys.MustMalloc(ownerOf(i), rowBytes, cAttr)
	}
	av, bv := Matrices(n, cfg.Seed)
	sys.Spawn(0, "init", func(t *dsmpm2.Thread) {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				t.WriteUint64(aRows[i]+dsmpm2.Addr(8*j), math.Float64bits(av[i][j]))
				t.WriteUint64(bRows[i]+dsmpm2.Addr(8*j), math.Float64bits(bv[i][j]))
			}
		}
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	for node := 0; node < cfg.Nodes; node++ {
		node := node
		sys.Spawn(node, fmt.Sprintf("mm%d", node), func(t *dsmpm2.Thread) {
			for i := 0; i < n; i++ {
				if ownerOf(i) != node {
					continue
				}
				for j := 0; j < n; j++ {
					c := 0.0
					for k := 0; k < n; k++ {
						a := math.Float64frombits(t.ReadUint64(aRows[i] + dsmpm2.Addr(8*k)))
						b := math.Float64frombits(t.ReadUint64(bRows[k] + dsmpm2.Addr(8*j)))
						c += a * b
					}
					t.WriteUint64(cRows[i]+dsmpm2.Addr(8*j), math.Float64bits(c))
				}
				t.Compute(dsmpm2.Duration(n*n) * macCost)
			}
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	res := Result{Elapsed: sys.Now(), Stats: sys.Stats(), System: sys}
	sys.Spawn(0, "checksum", func(t *dsmpm2.Thread) {
		sum := 0.0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum += math.Float64frombits(t.ReadUint64(cRows[i] + dsmpm2.Addr(8*j)))
			}
		}
		res.Checksum = sum
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}
