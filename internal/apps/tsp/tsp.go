// Package tsp implements the paper's Figure 4 workload: a branch-and-bound
// Traveling Salesman solver for cities placed at random inter-city
// distances, run with one application thread per node. The only intensively
// accessed shared variable is the current shortest path (the bound), updates
// to which are lock protected; bound reads at prune points go through the
// DSM read primitive.
//
// This access pattern is exactly what separates the protocols in Figure 4:
// under the page-based protocols the bound page is replicated to the readers
// and invalidated on each improvement, while under migrate_thread every
// thread touching the bound migrates to the node holding it — and stays
// there, overloading that node's CPU.
package tsp

import (
	"fmt"
	"math/rand"

	"dsmpm2"
)

// Config parameterizes a TSP run.
type Config struct {
	// Cities is the problem size (the paper uses 14; tests use fewer).
	Cities int
	// Seed drives city distances and the simulation.
	Seed int64
	// Nodes is the cluster size; one application thread runs per node.
	Nodes int
	// Network selects the interconnect: a profile (default BIP/Myrinet, as
	// in Fig. 4) or a per-link topology.
	Network dsmpm2.Topology
	// Protocol is the consistency protocol under test.
	Protocol string
	// ExpandCost is the CPU cost charged per search-tree node expansion.
	ExpandCost dsmpm2.Duration
	// Trace enables post-mortem span recording.
	Trace bool
}

// Result reports a run's outcome.
type Result struct {
	BestCost   int
	Elapsed    dsmpm2.Time
	Expansions int64
	Stats      dsmpm2.Stats
	System     *dsmpm2.System
}

// Distances builds the symmetric random distance matrix for a seed.
func Distances(cities int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	d := make([][]int, cities)
	for i := range d {
		d[i] = make([]int, cities)
	}
	for i := 0; i < cities; i++ {
		for j := i + 1; j < cities; j++ {
			w := 1 + rng.Intn(99)
			d[i][j], d[j][i] = w, w
		}
	}
	return d
}

// SolveSerial computes the optimal tour cost sequentially (the reference for
// correctness tests).
func SolveSerial(dist [][]int) int {
	n := len(dist)
	best := 1 << 30
	visited := make([]bool, n)
	visited[0] = true
	minOut := minOutgoing(dist)
	var dfs func(city, depth, cost int)
	dfs = func(city, depth, cost int) {
		if cost+lowerBound(visited, minOut) >= best {
			return
		}
		if depth == n {
			total := cost + dist[city][0]
			if total < best {
				best = total
			}
			return
		}
		for next := 1; next < n; next++ {
			if visited[next] {
				continue
			}
			visited[next] = true
			dfs(next, depth+1, cost+dist[city][next])
			visited[next] = false
		}
	}
	dfs(0, 1, 0)
	return best
}

// minOutgoing returns each city's cheapest outgoing edge, used as an
// admissible lower bound term.
func minOutgoing(dist [][]int) []int {
	n := len(dist)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		m := 1 << 30
		for j := 0; j < n; j++ {
			if i != j && dist[i][j] < m {
				m = dist[i][j]
			}
		}
		out[i] = m
	}
	return out
}

// lowerBound sums the cheapest outgoing edges of the unvisited cities.
func lowerBound(visited []bool, minOut []int) int {
	lb := 0
	for c, v := range visited {
		if !v {
			lb += minOut[c]
		}
	}
	return lb
}

// computeBatch is how many expansions are charged to the CPU in one go, to
// bound simulation event counts without changing total work.
const computeBatch = 16

// Run executes the distributed branch-and-bound solve and returns the
// result. The returned best cost always equals the serial optimum — every
// protocol must preserve correctness; only the runtime differs.
func Run(cfg Config) (Result, error) {
	if cfg.Cities < 3 {
		return Result{}, fmt.Errorf("tsp: need at least 3 cities")
	}
	if cfg.Nodes < 1 {
		return Result{}, fmt.Errorf("tsp: need at least 1 node")
	}
	if cfg.ExpandCost == 0 {
		cfg.ExpandCost = 2 * dsmpm2.Microsecond
	}
	sys, err := dsmpm2.New(dsmpm2.Config{
		Nodes:    cfg.Nodes,
		Network:  cfg.Network,
		Protocol: cfg.Protocol,
		Seed:     cfg.Seed,
		Trace:    cfg.Trace,
	})
	if err != nil {
		return Result{}, err
	}
	dist := Distances(cfg.Cities, cfg.Seed)
	minOut := minOutgoing(dist)
	n := cfg.Cities

	// The shared bound lives on node 0; updates are lock protected.
	boundAddr := sys.MustMalloc(0, 8, nil)
	lock := sys.NewLock(0)
	const inf = 1 << 30
	// Initialize from a setup thread on the home node.
	sys.Spawn(0, "init", func(t *dsmpm2.Thread) { t.WriteUint64(boundAddr, inf) })
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	var totalExpansions int64
	for node := 0; node < cfg.Nodes; node++ {
		node := node
		sys.Spawn(node, fmt.Sprintf("tsp%d", node), func(t *dsmpm2.Thread) {
			visited := make([]bool, n)
			visited[0] = true
			pendingCompute := 0
			expansions := int64(0)
			flush := func() {
				if pendingCompute > 0 {
					t.Compute(dsmpm2.Duration(pendingCompute) * cfg.ExpandCost)
					pendingCompute = 0
				}
			}
			readBound := func() int {
				flush()
				return int(t.ReadUint64(boundAddr))
			}
			var dfs func(city, depth, cost int)
			dfs = func(city, depth, cost int) {
				expansions++
				pendingCompute++
				if pendingCompute >= computeBatch {
					flush()
				}
				if cost+lowerBound(visited, minOut) >= readBound() {
					return
				}
				if depth == n {
					total := cost + dist[city][0]
					flush()
					t.Acquire(lock)
					if uint64(total) < t.ReadUint64(boundAddr) {
						t.WriteUint64(boundAddr, uint64(total))
					}
					t.Release(lock)
					return
				}
				for next := 1; next < n; next++ {
					if visited[next] {
						continue
					}
					visited[next] = true
					dfs(next, depth+1, cost+dist[city][next])
					visited[next] = false
				}
			}
			// Static first-branch distribution, round-robin over nodes.
			for first := 1; first < n; first++ {
				if (first-1)%cfg.Nodes != node {
					continue
				}
				visited[first] = true
				dfs(first, 2, dist[0][first])
				visited[first] = false
			}
			flush()
			totalExpansions += expansions
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	res := Result{
		Elapsed:    sys.Now(),
		Expansions: totalExpansions,
		Stats:      sys.Stats(),
		System:     sys,
	}
	sys.Spawn(0, "collect", func(t *dsmpm2.Thread) {
		res.BestCost = int(t.ReadUint64(boundAddr))
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}
