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
	"math/bits"
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

// SolveSerial computes the optimal tour cost of at most 64 cities
// sequentially (the reference for correctness tests). It keeps the unvisited
// cities as a bitmask and the bound — the cheapest outgoing edges of the
// unvisited cities — incrementally, in code of its own: the oracle shares
// nothing with the search it checks but minOutgoing.
func SolveSerial(dist [][]int) int {
	n := len(dist)
	best := 1 << 30
	minOut := minOutgoing(dist)
	var unvisited uint64
	lb := 0
	for c := 1; c < n; c++ {
		unvisited |= 1 << c
		lb += minOut[c]
	}
	var dfs func(city, cost, lb int, unvisited uint64)
	dfs = func(city, cost, lb int, unvisited uint64) {
		if cost+lb >= best {
			return
		}
		if unvisited == 0 {
			best = min(best, cost+dist[city][0])
			return
		}
		for rest := unvisited; rest != 0; rest &= rest - 1 {
			next := bits.TrailingZeros64(rest)
			dfs(next, cost+dist[city][next], lb-minOut[next], unvisited&^(1<<next))
		}
	}
	dfs(0, 0, lb, unvisited)
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

// Run executes the distributed branch-and-bound solve and returns the
// result. The returned best cost always equals the serial optimum — every
// protocol must preserve correctness; only the runtime differs.
func Run(cfg Config) (Result, error) {
	if cfg.Cities < 3 {
		return Result{}, fmt.Errorf("tsp: need at least 3 cities")
	}
	if cfg.Cities > 64 {
		return Result{}, fmt.Errorf("tsp: at most 64 cities (the unvisited set is a 64-bit mask), got %d", cfg.Cities)
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
			s := &searcher{t: t, dist: dist, minOut: minOut, bound: boundAddr, lock: lock, expandCost: cfg.ExpandCost}
			for c := 1; c < n; c++ {
				s.unvisit(c)
			}
			// Static first-branch distribution, round-robin over nodes.
			for first := 1 + node; first < n; first += cfg.Nodes {
				s.visit(first)
				s.expand(first, dist[0][first])
				s.unvisit(first)
			}
			totalExpansions += s.expansions
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

// searcher is one application thread's depth-first walk. The host keeps the
// lower bound and the unvisited set incrementally, so an expansion costs it
// what it costs the simulated thread: one Compute and one bound read.
type searcher struct {
	t          *dsmpm2.Thread
	dist       [][]int
	minOut     []int
	bound      dsmpm2.Addr
	lock       int
	expandCost dsmpm2.Duration

	unvisited  uint64 // bit c set while city c is off the current path
	lb         int    // lowerBound of the current path: minOut summed over unvisited
	expansions int64
}

func (s *searcher) visit(c int) {
	s.unvisited &^= 1 << c
	s.lb -= s.minOut[c]
}

func (s *searcher) unvisit(c int) {
	s.unvisited |= 1 << c
	s.lb += s.minOut[c]
}

// expand explores the path ending at city with the given cost. Children are
// taken in ascending city order, as SolveSerial takes them.
func (s *searcher) expand(city, cost int) {
	s.expansions++
	s.t.Compute(s.expandCost)
	if cost+s.lb >= int(s.t.ReadUint64(s.bound)) {
		return
	}
	if s.unvisited == 0 {
		total := uint64(cost + s.dist[city][0])
		s.t.Acquire(s.lock)
		if total < s.t.ReadUint64(s.bound) {
			s.t.WriteUint64(s.bound, total)
		}
		s.t.Release(s.lock)
		return
	}
	for m := s.unvisited; m != 0; m &= m - 1 {
		next := bits.TrailingZeros64(m)
		s.visit(next)
		s.expand(next, cost+s.dist[city][next])
		s.unvisit(next)
	}
}
