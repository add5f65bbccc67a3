// Package mapcolor implements the paper's Figure 5 workload: a multithreaded
// branch-and-bound solution to the minimal-cost map-coloring problem,
// coloring the twenty-nine eastern-most states in the USA using four colors
// with different costs (the Hyperion-compiled Java program of Section 4).
//
// The program is object-intensive in exactly the way the paper describes:
// each thread keeps its working assignment in an object homed on its own
// node and reads neighbour colors through the get primitive on every
// conflict check, while the shared best bound object on node 0 is touched
// rarely. Under java_ic every one of those local get/put operations pays an
// inline locality check; under java_pf they pay nothing and only the rare
// remote accesses fault — which is why java_pf outperforms java_ic in
// Figure 5.
package mapcolor

import (
	"fmt"
	"sort"

	"dsmpm2"
)

// States lists the 29 eastern-most US states.
var States = []string{
	"ME", "NH", "VT", "MA", "RI", "CT", "NY", "NJ", "PA", "DE",
	"MD", "VA", "WV", "NC", "SC", "GA", "FL", "OH", "KY", "TN",
	"AL", "MS", "MI", "IN", "IL", "WI", "AR", "LA", "MO",
}

// adjacency lists state borders by index into States.
var adjacency = [][]int{
	{1},                                  // ME: NH
	{0, 2, 3},                            // NH: ME VT MA
	{1, 3, 6},                            // VT: NH MA NY
	{1, 2, 4, 5, 6},                      // MA: NH VT RI CT NY
	{3, 5},                               // RI: MA CT
	{3, 4, 6},                            // CT: MA RI NY
	{2, 3, 5, 7, 8},                      // NY: VT MA CT NJ PA
	{6, 8, 9},                            // NJ: NY PA DE
	{6, 7, 9, 10, 12, 17},                // PA: NY NJ DE MD WV OH
	{7, 8, 10},                           // DE: NJ PA MD
	{8, 9, 11, 12},                       // MD: PA DE VA WV
	{10, 12, 13, 18, 19},                 // VA: MD WV NC KY TN
	{8, 10, 11, 17, 18},                  // WV: PA MD VA OH KY
	{11, 14, 15, 19},                     // NC: VA SC GA TN
	{13, 15},                             // SC: NC GA
	{13, 14, 16, 19, 20},                 // GA: NC SC FL TN AL
	{15, 20},                             // FL: GA AL
	{8, 12, 18, 22, 23},                  // OH: PA WV KY MI IN
	{11, 12, 17, 19, 23, 24, 28},         // KY: VA WV OH TN IN IL MO
	{11, 13, 15, 18, 20, 21, 24, 26, 28}, // TN: VA NC GA KY AL MS IL AR MO
	{15, 16, 19, 21},                     // AL: GA FL TN MS
	{19, 20, 26, 27},                     // MS: TN AL AR LA
	{17, 23, 25},                         // MI: OH IN WI
	{17, 18, 22, 24},                     // IN: OH KY MI IL
	{18, 19, 23, 25, 26, 28},             // IL: KY TN IN WI AR MO
	{22, 24},                             // WI: MI IL
	{19, 21, 24, 27, 28},                 // AR: TN MS IL LA MO
	{21, 26},                             // LA: MS AR
	{18, 19, 24, 26},                     // MO: KY TN IL AR
}

// NumColors colors are available; using color c for a state costs
// ColorCosts[c], and the objective is the minimal total cost.
const NumColors = 4

// ColorCosts are the per-color costs.
var ColorCosts = [NumColors]int{1, 2, 3, 4}

// unassigned marks an uncolored state in assignment arrays.
const unassigned = -1

// searchOrder returns the state indices ordered by degree descending (most
// constrained first), which shrinks the branch-and-bound tree by orders of
// magnitude without changing the optimum.
func searchOrder() []int {
	order := make([]int, len(States))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(adjacency[order[a]]) > len(adjacency[order[b]])
	})
	return order
}

// lowerBound sums, for every state from position p on, the cheapest color
// that does not conflict with the already-colored neighbours in colors.
// It is admissible: relaxing the constraint between two uncolored states can
// only lower the cost.
func lowerBound(order []int, colors []int, p int) int {
	sum := 0
	for q := p; q < len(order); q++ {
		s := order[q]
		m := ColorCosts[NumColors-1]
		for c := 0; c < NumColors; c++ {
			ok := true
			for _, nb := range adjacency[s] {
				if colors[nb] == c {
					ok = false
					break
				}
			}
			if ok {
				m = ColorCosts[c]
				break
			}
		}
		sum += m
	}
	return sum
}

// SolveSerial computes the optimal coloring cost sequentially (the reference
// for correctness tests).
func SolveSerial() int {
	order := searchOrder()
	colors := make([]int, len(States))
	for i := range colors {
		colors[i] = unassigned
	}
	best := 1 << 30
	var dfs func(p, cost int)
	dfs = func(p, cost int) {
		if p == len(order) {
			if cost < best {
				best = cost
			}
			return
		}
		if cost+lowerBound(order, colors, p) >= best {
			return
		}
		s := order[p]
		for c := 0; c < NumColors; c++ {
			if hasConflict(colors, s, c) {
				continue
			}
			colors[s] = c
			dfs(p+1, cost+ColorCosts[c])
			colors[s] = unassigned
		}
	}
	dfs(0, 0)
	return best
}

// hasConflict reports whether giving state s color c clashes with a colored
// neighbour.
func hasConflict(colors []int, s, c int) bool {
	for _, nb := range adjacency[s] {
		if colors[nb] == c {
			return true
		}
	}
	return false
}

// Config parameterizes a run.
type Config struct {
	// Nodes is the cluster size (the paper uses a four-node SCI cluster).
	Nodes int
	// ThreadsPerNode sets the application thread count per node.
	ThreadsPerNode int
	// Network selects the interconnect: a profile (default SISCI/SCI, as
	// in Fig. 5) or a per-link topology.
	Network dsmpm2.Topology
	// Protocol is "java_ic" or "java_pf" (any protocol works; these two
	// are the Figure 5 pair).
	Protocol string
	// Seed drives the simulation.
	Seed int64
}

// Result reports a run's outcome.
type Result struct {
	BestCost int
	Elapsed  dsmpm2.Time
	Stats    dsmpm2.Stats
	System   *dsmpm2.System
}

// expandCost is the CPU cost charged per assignment step.
const expandCost = 1 * dsmpm2.Microsecond

// Run executes the distributed branch and bound and returns the result.
func Run(cfg Config) (Result, error) {
	if cfg.Nodes < 1 {
		return Result{}, fmt.Errorf("mapcolor: need at least 1 node")
	}
	if cfg.ThreadsPerNode < 1 {
		cfg.ThreadsPerNode = 1
	}
	if cfg.Network == nil {
		cfg.Network = dsmpm2.SISCISCI
	}
	if cfg.Protocol == "" {
		cfg.Protocol = "java_pf"
	}
	sys, err := dsmpm2.New(dsmpm2.Config{
		Nodes:    cfg.Nodes,
		Network:  cfg.Network,
		Protocol: cfg.Protocol,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return Result{}, err
	}
	pid, ok := sys.Protocol(cfg.Protocol)
	if !ok {
		return Result{}, fmt.Errorf("mapcolor: unknown protocol %q", cfg.Protocol)
	}
	order := searchOrder()
	n := len(States)

	// Shared best-bound object on node 0, guarded by a monitor.
	bound := sys.MustNewObject(0, 1, pid)
	monitor := sys.NewLock(0)
	sys.Spawn(0, "init", func(t *dsmpm2.Thread) { t.PutField(bound, 0, 1<<30) })
	if err := sys.Run(); err != nil {
		return Result{}, err
	}

	// Work units: the color choices of the first two states in search
	// order, distributed round-robin over all threads.
	type unit struct{ c0, c1 int }
	var units []unit
	for c0 := 0; c0 < NumColors; c0++ {
		for c1 := 0; c1 < NumColors; c1++ {
			units = append(units, unit{c0, c1})
		}
	}

	nthreads := cfg.Nodes * cfg.ThreadsPerNode
	for ti := 0; ti < nthreads; ti++ {
		ti := ti
		node := ti % cfg.Nodes
		// Each thread's working assignment lives in an object homed on
		// its own node: "local objects are intensively used".
		work := sys.MustNewObject(node, n, pid)
		sys.Spawn(node, fmt.Sprintf("color%d", ti), func(t *dsmpm2.Thread) {
			// The thread keeps a private mirror of its assignment for
			// the bound computation (a Hyperion-style optimization:
			// bound arithmetic needs no coherence), while assignments
			// and conflict checks go through the object primitives.
			colors := make([]int, n)
			for i := 0; i < n; i++ {
				colors[i] = unassigned
				t.PutField(work, i, ^uint64(0))
			}
			assign := func(s, c int) {
				colors[s] = c
				t.PutField(work, s, uint64(c))
			}
			unassign := func(s int) {
				colors[s] = unassigned
				t.PutField(work, s, ^uint64(0))
			}
			conflictShared := func(s, c int) bool {
				for _, nb := range adjacency[s] {
					if t.GetField(work, nb) == uint64(c) {
						return true
					}
				}
				return false
			}
			cachedBound := 1 << 30
			sinceCheck := 0
			pending := 0
			flush := func() {
				if pending > 0 {
					t.Compute(dsmpm2.Duration(pending) * expandCost)
					pending = 0
				}
			}
			var dfs func(p, cost int)
			dfs = func(p, cost int) {
				pending++
				if pending >= 32 {
					flush()
				}
				if sinceCheck++; sinceCheck >= 64 {
					sinceCheck = 0
					flush()
					cachedBound = int(t.GetField(bound, 0))
				}
				if p == n {
					flush()
					t.Acquire(monitor)
					if uint64(cost) < t.GetField(bound, 0) {
						t.PutField(bound, 0, uint64(cost))
					}
					cachedBound = int(t.GetField(bound, 0))
					t.Release(monitor)
					return
				}
				if cost+lowerBound(order, colors, p) >= cachedBound {
					return
				}
				s := order[p]
				for c := 0; c < NumColors; c++ {
					if conflictShared(s, c) {
						continue
					}
					assign(s, c)
					dfs(p+1, cost+ColorCosts[c])
					unassign(s)
				}
			}
			for ui := ti; ui < len(units); ui += nthreads {
				u := units[ui]
				s0, s1 := order[0], order[1]
				if neighbours(s0, s1) && u.c0 == u.c1 {
					continue
				}
				assign(s0, u.c0)
				assign(s1, u.c1)
				dfs(2, ColorCosts[u.c0]+ColorCosts[u.c1])
				unassign(s1)
				unassign(s0)
			}
			flush()
		})
	}
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	res := Result{Elapsed: sys.Now(), Stats: sys.Stats(), System: sys}
	sys.Spawn(0, "collect", func(t *dsmpm2.Thread) {
		res.BestCost = int(t.GetField(bound, 0))
	})
	if err := sys.Run(); err != nil {
		return Result{}, err
	}
	return res, nil
}

// neighbours reports whether states a and b border each other.
func neighbours(a, b int) bool {
	for _, nb := range adjacency[a] {
		if nb == b {
			return true
		}
	}
	return false
}
