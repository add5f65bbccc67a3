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
		{"Uniform", func() madeleine.Topology { return madeleine.NewUniform(madeleine.BIPMyrinet) }},
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
// final page contents as any node would observe them).
type scenario struct {
	name   string
	oracle func() []uint64
	run    func(t *testing.T, rt *pm2.Runtime, d *core.DSM) []uint64
}

// conformanceHarness builds a machine over topo with all built-ins
// registered, proto as default, and the requested communication path.
func conformanceHarness(t *testing.T, topo madeleine.Topology, proto string, batched bool) (*pm2.Runtime, *core.DSM) {
	t.Helper()
	rt := pm2.NewRuntime(pm2.Config{Nodes: conformanceNodes, Topology: topo, Seed: 42})
	reg, _ := NewRegistry()
	d := core.New(rt, reg, core.DefaultCosts())
	d.SetBatching(batched)
	id, ok := reg.Lookup(proto)
	if !ok {
		t.Fatalf("protocol %q not registered", proto)
	}
	d.SetDefaultProtocol(id)
	return rt, d
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

func jacobiRun(t *testing.T, rt *pm2.Runtime, d *core.DSM) []uint64 {
	return jacobiRunPlaced(t, rt, d, false)
}

// jacobiRunMisplaced homes every grid row on node 0 — the placement the
// profiler's home migration exists to repair, so the adaptive sweep
// exercises real mid-run re-homings under every protocol.
func jacobiRunMisplaced(t *testing.T, rt *pm2.Runtime, d *core.DSM) []uint64 {
	return jacobiRunPlaced(t, rt, d, true)
}

func jacobiRunPlaced(t *testing.T, rt *pm2.Runtime, d *core.DSM, misplaced bool) []uint64 {
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

func mapcolorRun(t *testing.T, rt *pm2.Runtime, d *core.DSM) []uint64 {
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

func hotspotRun(t *testing.T, rt *pm2.Runtime, d *core.DSM) []uint64 {
	base := d.MustMalloc(0, 8*(conformanceNodes+1), nil)
	lock := d.NewLock(conformanceNodes - 1) // manager away from the home
	for node := 0; node < conformanceNodes; node++ {
		node := node
		rt.CreateThread(node, fmt.Sprintf("hot%d", node), func(th *pm2.Thread) {
			for i := 0; i < hotIncr; i++ {
				d.Acquire(th, lock)
				d.PutUint64(th, base, d.GetUint64(th, base)+1)
				d.Release(th, lock)
			}
			d.Acquire(th, lock)
			d.PutUint64(th, base+core.Addr(8*(node+1)), uint64(1000+node*node))
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

func prodconsRun(t *testing.T, rt *pm2.Runtime, d *core.DSM) []uint64 {
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
func readBack(t *testing.T, rt *pm2.Runtime, d *core.DSM, read func(*pm2.Thread) []uint64) []uint64 {
	t.Helper()
	var out []uint64
	rt.CreateThread(1, "readback", func(th *pm2.Thread) { out = read(th) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestConformanceAdaptive sweeps the conformance scenarios × every
// registered protocol × both communication paths with the sharing-pattern
// profiler's home migration enabled vs disabled, on the uniform topology.
// Both placements must match the sequential oracles AND (therefore) each
// other — migration may move pages, never values. A misplaced-homes jacobi
// variant joins the scenario set so the sweep exercises real mid-run
// re-homings (the standard scenarios allocate well-placed pages, which
// mostly stay put). In -short mode (the CI race job) the protocol set
// shrinks to hbrc_mw, erc_sw and adaptive — the home-based headline, the
// ownership-migrating MRSW, and the classifier's own consumer — with both
// comm paths kept, matching TestConformance's convention.
func TestConformanceAdaptive(t *testing.T) {
	scenarios := []scenario{
		{"jacobi", jacobiOracle, jacobiRun},
		{"jacobi-misplaced", jacobiOracle, jacobiRunMisplaced},
		{"mapcolor", mapcolorOracle, mapcolorRun},
		{"hotspot", hotspotOracle, hotspotRun},
		{"prodcons", prodconsOracle, prodconsRun},
	}
	commPaths := []struct {
		name    string
		batched bool
	}{
		{"batched", true},
		{"unbatched", false},
	}
	reg, _ := NewRegistry()
	protocols := reg.Names()
	if testing.Short() {
		protocols = []string{"hbrc_mw", "erc_sw", "adaptive"}
	}
	topo := func() madeleine.Topology { return madeleine.NewUniform(madeleine.BIPMyrinet) }
	for _, comm := range commPaths {
		for _, proto := range protocols {
			for _, sc := range scenarios {
				comm, proto, sc := comm, proto, sc
				t.Run(fmt.Sprintf("%s/%s/%s", comm.name, proto, sc.name), func(t *testing.T) {
					// Both placements are held to the same sequential
					// oracle, which is also the "match each other"
					// guarantee: two runs equal to one oracle cannot
					// diverge from one another.
					want := sc.oracle()
					for _, migrate := range []bool{false, true} {
						rt, d := conformanceHarness(t, topo(), proto, comm.batched)
						if migrate {
							d.EnableProfiler(core.ProfilerConfig{Migrate: true})
						}
						got := sc.run(t, rt, d)
						if len(got) != len(want) {
							t.Fatalf("migrate=%v: read %d values, oracle has %d", migrate, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("migrate=%v: value %d = %d, oracle says %d (migrations=%d)",
									migrate, i, got[i], want[i], d.Stats().HomeMigrations)
							}
						}
					}
				})
			}
		}
	}
}

// TestConformanceCounterParity pins Stats parity between the batched and
// unbatched communication paths: the same scenario under the same protocol
// must report identical fetch-side counters (RemoteFetches,
// MisplacedFetches — they count faults, which batching must not add or
// hide), and consistent invalidation-side accounting. Write notices exist
// only on the batched path (a notice replaces eager invalidations that the
// unbatched run must still perform), so for protocols that use them the
// invariant is a transfer, not an equality: unbatched InvAcks is bounded
// below by batched InvAcks and above by batched InvAcks + Notices. Every
// path must also keep InvAcks == Invalidations in a fault-free run — each
// invalidation shipped is acknowledged exactly once.
func TestConformanceCounterParity(t *testing.T) {
	scenarios := []scenario{
		{"jacobi", jacobiOracle, jacobiRun},
		{"jacobi-misplaced", jacobiOracle, jacobiRunMisplaced},
		{"mapcolor", mapcolorOracle, mapcolorRun},
		{"hotspot", hotspotOracle, hotspotRun},
		{"prodcons", prodconsOracle, prodconsRun},
	}
	reg, _ := NewRegistry()
	protocols := reg.Names()
	if testing.Short() {
		protocols = []string{"hbrc_mw", "erc_sw", "adaptive"}
	}
	topo := func() madeleine.Topology { return madeleine.NewUniform(madeleine.BIPMyrinet) }
	for _, proto := range protocols {
		for _, sc := range scenarios {
			proto, sc := proto, sc
			t.Run(fmt.Sprintf("%s/%s", proto, sc.name), func(t *testing.T) {
				var st [2]core.Stats
				for i, batched := range []bool{true, false} {
					rt, d := conformanceHarness(t, topo(), proto, batched)
					d.EnableProfiler(core.ProfilerConfig{}) // arm MisplacedFetches tracking
					sc.run(t, rt, d)
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
					t.Errorf("unbatched run queued %d write notices; notices require batching", u.Notices)
				}
				if b.InvAcks != b.Invalidations {
					t.Errorf("batched InvAcks %d != Invalidations %d", b.InvAcks, b.Invalidations)
				}
				if u.InvAcks != u.Invalidations {
					t.Errorf("unbatched InvAcks %d != Invalidations %d", u.InvAcks, u.Invalidations)
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

// TestConformance sweeps scenarios × protocols × topologies × communication
// paths (batched and unbatched). In -short mode only the uniform topology
// runs (the CI race job uses this subset); both comm paths stay covered
// there — the batched path is the default and the unbatched path must not
// rot.
func TestConformance(t *testing.T) {
	scenarios := []scenario{
		{"jacobi", jacobiOracle, jacobiRun},
		{"mapcolor", mapcolorOracle, mapcolorRun},
		{"hotspot", hotspotOracle, hotspotRun},
		{"prodcons", prodconsOracle, prodconsRun},
	}
	commPaths := []struct {
		name    string
		batched bool
	}{
		{"batched", true},
		{"unbatched", false},
	}
	reg, _ := NewRegistry()
	protocols := reg.Names()
	for _, topo := range conformanceTopologies(testing.Short()) {
		for _, comm := range commPaths {
			for _, proto := range protocols {
				for _, sc := range scenarios {
					name := fmt.Sprintf("%s/%s/%s/%s", topo.name, comm.name, proto, sc.name)
					t.Run(name, func(t *testing.T) {
						rt, d := conformanceHarness(t, topo.make(), proto, comm.batched)
						got := sc.run(t, rt, d)
						want := sc.oracle()
						if len(got) != len(want) {
							t.Fatalf("read %d values, oracle has %d", len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("value %d = %d, oracle says %d (full: got %v want %v)",
									i, got[i], want[i], got, want)
							}
						}
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
