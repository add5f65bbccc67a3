package protocols

// Cross-protocol conformance suite: a shared table of application-shaped
// scenarios (jacobi stencil, mapcolor-style branch & bound, hotspot counter,
// producer/consumer) runs over EVERY registered protocol × every topology
// class, and the final shared-memory contents must match a single-node
// sequential oracle. The protocol list comes from the registry, so a newly
// registered protocol is covered automatically — if it cannot keep these
// four sharing patterns coherent, this suite is where it fails first.
//
// Scenarios access shared data through the object primitives (Get/Put),
// which route through a protocol's inline-check machinery when it has one
// (java_ic, java_pf) and fall back to the paged access path everywhere
// else — the one access style every protocol supports.

import (
	"fmt"
	"testing"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
)

// conformanceNodes is the cluster size every scenario runs on.
const conformanceNodes = 4

// topoCase is one interconnect class the suite sweeps.
type topoCase struct {
	name string
	make func() madeleine.Topology
}

func conformanceTopologies(short bool) []topoCase {
	topos := []topoCase{
		{"Uniform", func() madeleine.Topology { return madeleine.BIPMyrinet }},
	}
	if short {
		return topos
	}
	return append(topos,
		topoCase{"Hierarchical", func() madeleine.Topology {
			return madeleine.NewHierarchical(
				madeleine.EvenClusters(conformanceNodes, 2),
				madeleine.SISCISCI, madeleine.TCPFastEthernet)
		}},
		topoCase{"LinkMatrix", func() madeleine.Topology {
			return madeleine.NewLinkMatrix(madeleine.BIPMyrinet).
				SetDuplex(0, conformanceNodes-1, madeleine.TCPFastEthernet).
				SetDuplex(1, 2, madeleine.SISCISCI)
		}},
	)
}

// scenario is one shared workload: run drives the cluster, oracle computes
// the expected final state sequentially; both return the values the suite
// compares (read back through the DSM itself, so what is checked is the
// final page contents as any node would observe them). eager selects the
// unbatched release path (see releasePaths).
type scenario struct {
	name   string
	oracle func() []uint64
	run    func(t *testing.T, rt *machine, d *core.DSM, eager bool) []uint64
}

// machine is the cluster a scenario drives: the runtime it spawns threads
// on, and run, which drives them to completion — the runtime's own Run, or
// a facade System's, which arms an injected fault plan first.
type machine struct {
	*pm2.Runtime
	run func() error
}

// Run drives every thread spawned so far to completion.
func (m *machine) Run() error { return m.run() }

// releasePaths are the sweeps' two release legs, named by the path segment
// of their subtests. On the batched leg a thread's writes ride the release
// of the barrier or lock it reaches, so a cluster-wide barrier may batch the
// release's invalidations into write notices. On the unbatched leg every
// thread flushes its release explicitly (FlushRelease) just before, so
// nothing is batched onto a synchronisation: every invalidation ships
// eagerly through the outbox.
var releasePaths = []struct {
	name  string
	eager bool
}{
	{"batched", false},
	{"unbatched", true},
}

// flushFirst is a scenario thread's step before it arrives at a barrier or
// releases a lock: on the unbatched leg it flushes the thread's release.
func flushFirst(d *core.DSM, th *pm2.Thread, eager bool) {
	if eager {
		d.FlushRelease(th)
	}
}

// conformanceHarness builds a machine over topo with all built-ins
// registered and proto as default.
func conformanceHarness(t *testing.T, topo madeleine.Topology, proto string) (*machine, *core.DSM) {
	t.Helper()
	rt := pm2.NewRuntime(pm2.Config{Nodes: conformanceNodes, Network: topo, Seed: 42})
	reg, _ := NewRegistry()
	d := core.New(rt, reg)
	id, ok := reg.Lookup(proto)
	if !ok {
		t.Fatalf("protocol %q not registered", proto)
	}
	d.SetDefaultProtocol(id)
	return &machine{Runtime: rt, run: rt.Run}, d
}

// --- scenario: jacobi -------------------------------------------------------

const (
	jacN     = 8 // interior grid dimension
	jacIters = 3
)

func jacobiOracle() []uint64 {
	cur := make([][]float64, jacN+2)
	next := make([][]float64, jacN+2)
	for i := range cur {
		cur[i] = make([]float64, jacN+2)
		next[i] = make([]float64, jacN+2)
		for j := range cur[i] {
			if i == 0 {
				cur[i][j] = 100
				next[i][j] = 100
			}
		}
	}
	for it := 0; it < jacIters; it++ {
		for i := 1; i <= jacN; i++ {
			for j := 1; j <= jacN; j++ {
				next[i][j] = 0.25 * (cur[i-1][j] + cur[i+1][j] + cur[i][j-1] + cur[i][j+1])
			}
		}
		cur, next = next, cur
	}
	out := make([]uint64, 0, jacN*jacN)
	for i := 1; i <= jacN; i++ {
		for j := 1; j <= jacN; j++ {
			out = append(out, uint64(cur[i][j]*1e6)) // fixed-point to stay integral
		}
	}
	return out
}

func jacobiRun(t *testing.T, rt *machine, d *core.DSM, eager bool) []uint64 {
	return jacobiRunPlaced(t, rt, d, eager, false)
}

// jacobiRunMisplaced homes every grid row on node 0 — the placement the
// profiler's home migration exists to repair, so the adaptive sweep
// exercises real mid-run re-homings under every protocol.
func jacobiRunMisplaced(t *testing.T, rt *machine, d *core.DSM, eager bool) []uint64 {
	return jacobiRunPlaced(t, rt, d, eager, true)
}

func jacobiRunPlaced(t *testing.T, rt *machine, d *core.DSM, eager, misplaced bool) []uint64 {
	rowBytes := (jacN + 2) * 8
	ownerOf := func(row int) int {
		if row == 0 {
			return 0
		}
		if row == jacN+1 {
			return conformanceNodes - 1
		}
		return (row - 1) * conformanceNodes / jacN
	}
	var attr *core.Attr
	if misplaced {
		attr = &core.Attr{Protocol: -1, Home: 0}
	}
	grids := [2][]core.Addr{make([]core.Addr, jacN+2), make([]core.Addr, jacN+2)}
	for g := 0; g < 2; g++ {
		for row := 0; row <= jacN+1; row++ {
			grids[g][row] = d.MustMalloc(ownerOf(row), rowBytes, attr)
		}
	}
	// Fixed-point arithmetic (1e-6 units) keeps every cell integral, so
	// page contents compare exactly.
	bar := d.NewBarrier(conformanceNodes)
	for node := 0; node < conformanceNodes; node++ {
		node := node
		rt.CreateThread(node, fmt.Sprintf("jac%d", node), func(th *pm2.Thread) {
			// Init own rows of both grids.
			for g := 0; g < 2; g++ {
				for row := 0; row <= jacN+1; row++ {
					if ownerOf(row) != node {
						continue
					}
					v := uint64(0)
					if row == 0 {
						v = 100 * 1e6
					}
					for j := 0; j <= jacN+1; j++ {
						d.PutUint64(th, grids[g][row]+core.Addr(8*j), v)
					}
				}
			}
			flushFirst(d, th, eager)
			d.Barrier(th, bar)
			cur, next := 0, 1
			for it := 0; it < jacIters; it++ {
				for row := 1; row <= jacN; row++ {
					if ownerOf(row) != node {
						continue
					}
					for j := 1; j <= jacN; j++ {
						a := d.GetUint64(th, grids[cur][row-1]+core.Addr(8*j))
						b := d.GetUint64(th, grids[cur][row+1]+core.Addr(8*j))
						c := d.GetUint64(th, grids[cur][row]+core.Addr(8*(j-1)))
						e := d.GetUint64(th, grids[cur][row]+core.Addr(8*(j+1)))
						d.PutUint64(th, grids[next][row]+core.Addr(8*j), (a+b+c+e)/4)
					}
				}
				flushFirst(d, th, eager)
				d.Barrier(th, bar)
				cur, next = next, cur
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	final := jacIters % 2
	return readBack(t, rt, d, func(th *pm2.Thread) []uint64 {
		out := make([]uint64, 0, jacN*jacN)
		for i := 1; i <= jacN; i++ {
			for j := 1; j <= jacN; j++ {
				out = append(out, d.GetUint64(th, grids[final][i]+core.Addr(8*j)))
			}
		}
		return out
	})
}

// --- scenario: mapcolor -----------------------------------------------------

// A branch-and-bound reduction in the shape of the map-coloring search:
// every node evaluates a deterministic slice of candidate assignments and
// races to improve the shared best cost under a lock.

const mcCandidates = 64

func mcCost(i int) uint64 {
	x := uint64(i)*2654435761 + 97
	return x % 1000
}

func mapcolorOracle() []uint64 {
	best, arg := ^uint64(0), uint64(0)
	for i := 0; i < mcCandidates; i++ {
		if c := mcCost(i); c < best {
			best, arg = c, uint64(i)
		}
	}
	return []uint64{best, arg}
}

func mapcolorRun(t *testing.T, rt *machine, d *core.DSM, eager bool) []uint64 {
	base := d.MustMalloc(0, 16, nil) // [best, argbest]
	lock := d.NewLock(0)
	rt.CreateThread(0, "mcinit", func(th *pm2.Thread) {
		d.PutUint64(th, base, ^uint64(0))
		d.PutUint64(th, base+8, 0)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < conformanceNodes; node++ {
		node := node
		rt.CreateThread(node, fmt.Sprintf("mc%d", node), func(th *pm2.Thread) {
			for i := node; i < mcCandidates; i += conformanceNodes {
				c := mcCost(i)
				d.Acquire(th, lock)
				if c < d.GetUint64(th, base) {
					d.PutUint64(th, base, c)
					d.PutUint64(th, base+8, uint64(i))
				}
				flushFirst(d, th, eager)
				d.Release(th, lock)
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return readBack(t, rt, d, func(th *pm2.Thread) []uint64 {
		d.Acquire(th, lock)
		defer d.Release(th, lock)
		return []uint64{d.GetUint64(th, base), d.GetUint64(th, base+8)}
	})
}

// --- scenario: hotspot ------------------------------------------------------

// Every node hammers one shared counter page under a lock — the classic
// hotspot — and also signs a private slot on the same page, so both the
// contended word and the surrounding page contents are checked.

const hotIncr = 12

func hotspotOracle() []uint64 {
	out := []uint64{conformanceNodes * hotIncr}
	for n := 0; n < conformanceNodes; n++ {
		out = append(out, uint64(1000+n*n))
	}
	return out
}

func hotspotRun(t *testing.T, rt *machine, d *core.DSM, eager bool) []uint64 {
	base := d.MustMalloc(0, 8*(conformanceNodes+1), nil)
	lock := d.NewLock(conformanceNodes - 1) // manager away from the home
	for node := 0; node < conformanceNodes; node++ {
		node := node
		rt.CreateThread(node, fmt.Sprintf("hot%d", node), func(th *pm2.Thread) {
			for i := 0; i < hotIncr; i++ {
				d.Acquire(th, lock)
				d.PutUint64(th, base, d.GetUint64(th, base)+1)
				flushFirst(d, th, eager)
				d.Release(th, lock)
			}
			d.Acquire(th, lock)
			d.PutUint64(th, base+core.Addr(8*(node+1)), uint64(1000+node*node))
			flushFirst(d, th, eager)
			d.Release(th, lock)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return readBack(t, rt, d, func(th *pm2.Thread) []uint64 {
		d.Acquire(th, lock)
		defer d.Release(th, lock)
		out := []uint64{d.GetUint64(th, base)}
		for n := 0; n < conformanceNodes; n++ {
			out = append(out, d.GetUint64(th, base+core.Addr(8*(n+1))))
		}
		return out
	})
}

// --- scenario: producer/consumer --------------------------------------------

// A producer on node 0 streams items through a one-slot shared mailbox to a
// consumer on the last node, synchronized with a DSM lock and condition
// variables; the consumer publishes its running sum back through shared
// memory.

const pcItems = 16

func pcValue(i int) uint64 { return uint64(i)*31 + 7 }

func prodconsOracle() []uint64 {
	sum := uint64(0)
	for i := 0; i < pcItems; i++ {
		sum += pcValue(i)
	}
	return []uint64{sum, pcItems}
}

func prodconsRun(t *testing.T, rt *machine, d *core.DSM, eager bool) []uint64 {
	// Layout: [full flag, item, sum, count]
	base := d.MustMalloc(0, 32, nil)
	lock := d.NewLock(0)
	notFull := d.NewCond(lock)
	notEmpty := d.NewCond(lock)
	rt.CreateThread(0, "producer", func(th *pm2.Thread) {
		for i := 0; i < pcItems; i++ {
			d.Acquire(th, lock)
			for d.GetUint64(th, base) != 0 {
				d.CondWait(th, notFull)
			}
			d.PutUint64(th, base+8, pcValue(i))
			d.PutUint64(th, base, 1)
			d.CondSignal(th, notEmpty)
			flushFirst(d, th, eager)
			d.Release(th, lock)
		}
	})
	rt.CreateThread(conformanceNodes-1, "consumer", func(th *pm2.Thread) {
		for i := 0; i < pcItems; i++ {
			d.Acquire(th, lock)
			for d.GetUint64(th, base) == 0 {
				d.CondWait(th, notEmpty)
			}
			v := d.GetUint64(th, base+8)
			d.PutUint64(th, base, 0)
			d.PutUint64(th, base+16, d.GetUint64(th, base+16)+v)
			d.PutUint64(th, base+24, d.GetUint64(th, base+24)+1)
			d.CondSignal(th, notFull)
			flushFirst(d, th, eager)
			d.Release(th, lock)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return readBack(t, rt, d, func(th *pm2.Thread) []uint64 {
		d.Acquire(th, lock)
		defer d.Release(th, lock)
		return []uint64{d.GetUint64(th, base+16), d.GetUint64(th, base+24)}
	})
}

// readBack collects the scenario's final shared values from a fresh thread
// on node 1 (never the home of anything above), so the comparison crosses
// the protocol's read path one more time.
func readBack(t *testing.T, rt *machine, d *core.DSM, read func(*pm2.Thread) []uint64) []uint64 {
	t.Helper()
	var out []uint64
	rt.CreateThread(1, "readback", func(th *pm2.Thread) { out = read(th) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkRun holds one finished scenario run to its sequential oracle and to
// the fault-free acknowledgement invariant: every invalidation shipped was
// acknowledged exactly once. label prefixes the failure messages.
func checkRun(t *testing.T, label string, d *core.DSM, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%sread %d values, oracle has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%svalue %d = %d, oracle says %d (migrations=%d; full: got %v want %v)",
				label, i, got[i], want[i], d.Stats().HomeMigrations, got, want)
		}
	}
	if st := d.Stats(); st.InvAcks != st.Invalidations {
		t.Errorf("%sInvAcks %d != Invalidations %d", label, st.InvAcks, st.Invalidations)
	}
}

// conformanceScenarios are the standard four scenarios.
func conformanceScenarios() []scenario {
	return []scenario{
		{"jacobi", jacobiOracle, jacobiRun},
		{"mapcolor", mapcolorOracle, mapcolorRun},
		{"hotspot", hotspotOracle, hotspotRun},
		{"prodcons", prodconsOracle, prodconsRun},
	}
}

// adaptiveScenarios are the scenarios of the profiler sweeps: the standard
// four plus a misplaced-homes jacobi, whose pages the profiler re-homes.
func adaptiveScenarios() []scenario {
	return append(conformanceScenarios(), scenario{"jacobi-misplaced", jacobiOracle, jacobiRunMisplaced})
}

// adaptiveProtocols is the protocol set of the profiler sweeps. In -short
// mode (the CI race job) it shrinks to hbrc_mw, erc_sw and adaptive — the
// home-based headline, the ownership-migrating MRSW, and the classifier's
// own consumer.
func adaptiveProtocols() []string {
	if testing.Short() {
		return []string{"hbrc_mw", "erc_sw", "adaptive"}
	}
	reg, _ := NewRegistry()
	return reg.Names()
}

// TestConformanceAdaptive sweeps the conformance scenarios × every
// registered protocol × both release paths with the sharing-pattern
// profiler's home migration enabled vs disabled, on the uniform topology.
// Both placements must match the sequential oracles AND (therefore) each
// other — migration may move pages, never values. A misplaced-homes jacobi
// variant joins the scenario set so the sweep exercises real mid-run
// re-homings (the standard scenarios allocate well-placed pages, which
// mostly stay put). -short keeps both release paths, matching
// TestConformance's convention.
func TestConformanceAdaptive(t *testing.T) {
	topo := func() madeleine.Topology { return madeleine.BIPMyrinet }
	for _, path := range releasePaths {
		for _, proto := range adaptiveProtocols() {
			for _, sc := range adaptiveScenarios() {
				t.Run(fmt.Sprintf("%s/%s/%s", path.name, proto, sc.name), func(t *testing.T) {
					// Both placements are held to the same sequential
					// oracle, which is also the "match each other"
					// guarantee: two runs equal to one oracle cannot
					// diverge from one another.
					want := sc.oracle()
					for _, migrate := range []bool{false, true} {
						rt, d := conformanceHarness(t, topo(), proto)
						if migrate {
							d.EnableProfiler()
						}
						checkRun(t, fmt.Sprintf("migrate=%v: ", migrate), d, sc.run(t, rt, d, path.eager), want)
					}
				})
			}
		}
	}
}

// TestConformanceCounterParity pins Stats parity between the two release
// paths: the same scenario under the same protocol must report identical
// fetch-side counters (RemoteFetches, MisplacedFetches — they count faults,
// which where a release ships its invalidations must not add or hide), and
// consistent invalidation-side accounting. Write notices exist only on the
// batched path (a notice replaces eager invalidations that the unbatched run
// must still perform), so for protocols that use them the invariant is a
// transfer, not an equality: unbatched InvAcks is bounded below by batched
// InvAcks and above by batched InvAcks + Notices.
func TestConformanceCounterParity(t *testing.T) {
	topo := func() madeleine.Topology { return madeleine.BIPMyrinet }
	for _, proto := range adaptiveProtocols() {
		for _, sc := range adaptiveScenarios() {
			t.Run(fmt.Sprintf("%s/%s", proto, sc.name), func(t *testing.T) {
				var st [2]core.Stats
				for i, path := range releasePaths {
					rt, d := conformanceHarness(t, topo(), proto)
					d.EnableProfiler() // arm MisplacedFetches tracking
					checkRun(t, path.name+": ", d, sc.run(t, rt, d, path.eager), sc.oracle())
					st[i] = d.Stats()
				}
				b, u := st[0], st[1]
				if b.RemoteFetches != u.RemoteFetches {
					t.Errorf("RemoteFetches: batched %d, unbatched %d", b.RemoteFetches, u.RemoteFetches)
				}
				if b.MisplacedFetches != u.MisplacedFetches {
					t.Errorf("MisplacedFetches: batched %d, unbatched %d", b.MisplacedFetches, u.MisplacedFetches)
				}
				if u.Notices != 0 {
					t.Errorf("unbatched run queued %d write notices; every release was flushed before its barrier", u.Notices)
				}
				if b.Notices == 0 {
					if b.InvAcks != u.InvAcks {
						t.Errorf("InvAcks: batched %d, unbatched %d (no notices in play)", b.InvAcks, u.InvAcks)
					}
				} else if u.InvAcks < b.InvAcks || u.InvAcks > b.InvAcks+b.Notices {
					t.Errorf("InvAcks transfer violated: unbatched %d outside [batched %d, batched+notices %d]",
						u.InvAcks, b.InvAcks, b.InvAcks+b.Notices)
				}
			})
		}
	}
}

// TestConformance sweeps scenarios × protocols × topologies × release paths.
// In -short mode only the uniform topology runs (the CI race job uses this
// subset); both release paths stay covered there.
func TestConformance(t *testing.T) {
	scenarios := conformanceScenarios()
	reg, _ := NewRegistry()
	protocols := reg.Names()
	for _, topo := range conformanceTopologies(testing.Short()) {
		for _, path := range releasePaths {
			for _, proto := range protocols {
				for _, sc := range scenarios {
					name := fmt.Sprintf("%s/%s/%s/%s", topo.name, path.name, proto, sc.name)
					t.Run(name, func(t *testing.T) {
						rt, d := conformanceHarness(t, topo.make(), proto)
						checkRun(t, "", d, sc.run(t, rt, d, path.eager), sc.oracle())
					})
				}
			}
		}
	}
}

// TestConformancePoisoned reruns the sweep with the core's use-after-free net
// on (core.PoisonFreed): every record the core frees reads as sentinels from
// then on and is never reused, so a protocol routine — or a toolbox routine
// under it — that kept a record past its return fails on a node of -1 or a nil
// thread here, instead of silently reading its successor's fields.
func TestConformancePoisoned(t *testing.T) {
	core.PoisonFreed = true
	defer func() { core.PoisonFreed = false }()
	TestConformance(t)
}
