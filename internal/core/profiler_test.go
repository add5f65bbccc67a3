package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
)

// TestClassifyCounters pins the classification function on hand-built epoch
// evidence: the table is the spec.
func TestClassifyCounters(t *testing.T) {
	c := func(reads, writes, fetches, diffs uint32) pageCounters {
		return pageCounters{reads: reads, writes: writes, fetches: fetches, diffs: diffs}
	}
	cases := []struct {
		name   string
		counts []pageCounters
		class  PageClass
		writer int
	}{
		{"idle", []pageCounters{{}, {}, {}}, ClassIdle, -1},
		{"private-writer", []pageCounters{{}, c(3, 5, 1, 0), {}}, ClassPrivate, 1},
		{"private-reader-only-node", []pageCounters{{}, {}, c(4, 0, 1, 0)}, ClassReadShared, -1},
		{"read-shared", []pageCounters{c(2, 0, 1, 0), {}, c(1, 0, 1, 0)}, ClassReadShared, -1},
		{"producer-consumer", []pageCounters{c(2, 0, 1, 0), c(0, 6, 0, 1), c(3, 0, 2, 0)}, ClassProducerConsumer, 1},
		{"migratory", []pageCounters{c(1, 2, 1, 0), c(1, 3, 1, 0), {}}, ClassMigratory, -1},
		{"falsely-shared", []pageCounters{c(0, 2, 1, 1), c(0, 5, 1, 1), c(1, 0, 1, 0)}, ClassFalselyShared, 1},
		{"falsely-shared-tie-lowest", []pageCounters{c(0, 4, 1, 1), c(0, 4, 1, 1)}, ClassFalselyShared, 0},
		{"fetch-only-node", []pageCounters{{}, c(0, 0, 2, 0)}, ClassReadShared, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			class, writer := classifyCounters(tc.counts)
			if class != tc.class || writer != tc.writer {
				t.Fatalf("classify = (%v, %d), want (%v, %d)", class, writer, tc.class, tc.writer)
			}
		})
	}
}

// profUpdate is one profiler observation, replayable in any order.
type profUpdate struct {
	kind string // "fault", "fetch", "diff"
	node int
	pg   int // page index into the allocated set
	wr   bool
}

// TestProfilerDecisionsOrderIndependent: the epoch fold is a pure function
// of the counters, and counter updates commute — shuffling the order the
// per-node updates arrive in must not change the classification histogram,
// the migration candidates, or their order. The updates are applied in two
// epochs, so the second fold's writers have the DefaultStability (2) epochs
// of agreement a candidate needs.
func TestProfilerDecisionsOrderIndependent(t *testing.T) {
	const nodes = 4
	// A fixed observation set: page 0 producer-consumer (writer 2), page 1
	// private to node 3, page 2 migratory, page 3 idle, page 4 falsely
	// shared (writers 1 and 2, diffs from both).
	var updates []profUpdate
	add := func(kind string, node, pg int, wr bool, times int) {
		for i := 0; i < times; i++ {
			updates = append(updates, profUpdate{kind, node, pg, wr})
		}
	}
	add("fault", 2, 0, true, 6)
	add("fault", 0, 0, false, 2)
	add("fault", 1, 0, false, 3)
	add("fetch", 0, 0, false, 2)
	add("fault", 3, 1, true, 4)
	add("fault", 3, 1, false, 2)
	add("fault", 0, 2, true, 2)
	add("fault", 1, 2, true, 2)
	add("fault", 2, 2, true, 1)
	add("fault", 1, 4, true, 3)
	add("diff", 1, 4, false, 1)
	add("fault", 2, 4, true, 5)
	add("diff", 2, 4, false, 1)

	run := func(shuffleSeed int64) (EpochProfile, []migCandidate, []Page) {
		rt := pm2.NewRuntime(pm2.Config{Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 1})
		reg := NewRegistry()
		d := New(rt, reg)
		h, _ := localProto("p")
		id := reg.Register("p", func(*DSM) Protocol { return h })
		d.SetDefaultProtocol(id)
		pages := make([]Page, 5)
		for i := range pages {
			base := d.MustMalloc(1, PageSize, nil) // every page starts homed on node 1
			pages[i] = d.state[0].space.PageOf(base)
		}
		d.EnableProfiler()
		rng := rand.New(rand.NewSource(shuffleSeed))
		var (
			ep    EpochProfile
			cands []migCandidate
		)
		for epoch := 0; epoch < DefaultStability; epoch++ {
			ups := append([]profUpdate(nil), updates...)
			if shuffleSeed != 0 {
				rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
			}
			for _, u := range ups {
				switch u.kind {
				case "fault":
					d.profFault(u.node, pages[u.pg], u.wr)
				case "fetch":
					d.profFetch(u.node, pages[u.pg], 1)
				case "diff":
					d.profDiff(u.node, pages[u.pg])
				}
			}
			ep, cands = d.foldEpoch()
		}
		return ep, cands, pages
	}

	baseEp, baseCands, pages := run(0)
	// Sanity: the evidence must produce the intended classes and decisions.
	want := EpochProfile{Epoch: DefaultStability - 1, ProducerConsumer: 1, Private: 1, Migratory: 1, Idle: 1, FalselyShared: 1}
	if baseEp != want {
		t.Fatalf("histogram %+v, want %+v", baseEp, want)
	}
	wantCands := []migCandidate{{pg: pages[0], writer: 2}, {pg: pages[1], writer: 3}, {pg: pages[4], writer: 2}}
	if fmt.Sprint(baseCands) != fmt.Sprint(wantCands) {
		t.Fatalf("candidates %v, want %v", baseCands, wantCands)
	}
	for seed := int64(1); seed <= 5; seed++ {
		ep, cands, _ := run(seed)
		if ep != baseEp {
			t.Fatalf("shuffle(seed=%d) changed the histogram: %+v vs %+v", seed, ep, baseEp)
		}
		if fmt.Sprint(cands) != fmt.Sprint(baseCands) {
			t.Fatalf("shuffle(seed=%d) changed the decisions: %v vs %v", seed, cands, baseCands)
		}
	}
}

// TestEnableProfilerTwice: re-enabling replaces the configuration without
// re-registering the handshake services (which would panic as duplicates),
// and pages adopted after the first epoch fold honour the writer=-1
// contract for their unwritten ring slots.
func TestEnableProfilerTwice(t *testing.T) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	reg := NewRegistry()
	d := New(rt, reg)
	h, _ := localProto("p")
	id := reg.Register("p", func(*DSM) Protocol { return h })
	d.SetDefaultProtocol(id)
	d.EnableProfiler()
	d.EnableProfiler()
	d.foldEpoch() // epoch 0 closes with no pages
	base := d.MustMalloc(0, PageSize, nil)
	pg := d.state[0].space.PageOf(base)
	if class, writer := d.PageClassOf(pg); class != ClassIdle || writer != -1 {
		t.Fatalf("late-adopted page classified (%v, %d), want (idle, -1)", class, writer)
	}
}

// TestProfilerStabilityHysteresis: a page must keep one dominant writer for
// DefaultStability (2) consecutive writing epochs before it migrates, read-only epochs
// hold the streak (double-buffered workloads), and a competing writer resets
// it.
func TestProfilerStabilityHysteresis(t *testing.T) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 3, Network: madeleine.BIPMyrinet, Seed: 1})
	reg := NewRegistry()
	d := New(rt, reg)
	h, _ := localProto("p")
	id := reg.Register("p", func(*DSM) Protocol { return h })
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(0, PageSize, nil)
	pg := d.state[0].space.PageOf(base)
	d.EnableProfiler()

	fold := func() []migCandidate {
		_, cands := d.foldEpoch()
		return cands
	}
	// Epoch 0: node 1 writes — stable streak 1, no candidate yet.
	d.profFault(1, pg, true)
	if c := fold(); len(c) != 0 {
		t.Fatalf("candidate after one epoch: %v", c)
	}
	// Epoch 1: read-only epoch holds the streak without advancing it.
	d.profFault(2, pg, false)
	if c := fold(); len(c) != 0 {
		t.Fatalf("candidate after read-only epoch: %v", c)
	}
	// Epoch 2: node 1 writes again — streak 2, candidate nominated.
	d.profFault(1, pg, true)
	c := fold()
	if len(c) != 1 || c[0].writer != 1 {
		t.Fatalf("want one candidate for writer 1, got %v", c)
	}
	// Epoch 3: a different writer resets the streak.
	d.profFault(2, pg, true)
	if c := fold(); len(c) != 0 {
		t.Fatalf("candidate right after writer change: %v", c)
	}
	// Epoch 4: same new writer again — streak 2 for node 2.
	d.profFault(2, pg, true)
	c = fold()
	if len(c) != 1 || c[0].writer != 2 {
		t.Fatalf("want one candidate for writer 2, got %v", c)
	}
}

// TestHomeMigrationMovesPage: end-to-end over a live cluster — a page homed
// on node 0 but written every epoch by node 2 migrates there at a barrier,
// the entries agree on the new placement on every node, and the page data
// survives the move.
func TestHomeMigrationMovesPage(t *testing.T) {
	const nodes = 4
	rt := pm2.NewRuntime(pm2.Config{Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 3})
	reg := NewRegistry()
	d := New(rt, reg)
	// A minimal fetch-capable MRSW protocol (li_hudak's shape) built from
	// hooks, so the test stays inside the core package.
	h := &Hooks{
		ProtoName:    "fetcher",
		OnReadFault:  func(f *Fault) { FetchPage(f, false) },
		OnWriteFault: func(f *Fault) { FetchPage(f, true) },
		OnReadServer: func(r *Request) {
			e, owner := ServeWhenOwner(r)
			if !owner {
				ForwardRequest(r, e)
				return
			}
			e.AddCopyset(r.From)
			r.DSM.Space(r.Node).SetAccess(r.Page, memory.ReadOnly)
			SendPage(r, e, r.From, memory.ReadOnly, false, NodeSet{})
			e.Unlock(r.Thread)
		},
		OnWriteServer: func(r *Request) {
			e, owner := ServeWhenOwner(r)
			if !owner {
				ForwardRequest(r, e)
				return
			}
			cs := e.TakeCopyset()
			InvalidateCopies(r.DSM, r.Thread, r.Page, cs, r.From)
			SendPage(r, e, r.From, memory.ReadWrite, true, NodeSet{})
			e.Owner = false
			e.ProbOwner = r.From
			r.DSM.Space(r.Node).Drop(r.Page)
			e.Unlock(r.Thread)
		},
		OnInvalidate: func(iv *Invalidate) { DropCopy(iv) },
	}
	id := reg.Register("fetcher", func(*DSM) Protocol { return h })
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(0, 8, nil) // homed on node 0
	pg := d.state[0].space.PageOf(base)
	d.EnableProfiler()

	bar := d.NewBarrier(nodes)
	const rounds = 5
	for n := 0; n < nodes; n++ {
		n := n
		rt.CreateThread(n, fmt.Sprintf("w%d", n), func(th *pm2.Thread) {
			for r := 0; r < rounds; r++ {
				if n == 2 {
					// The producer: every write re-faults because the
					// consumers' read copies revoked its exclusivity.
					d.WriteUint64(th, base, uint64(100+r))
				} else {
					d.ReadUint64(th, base)
				}
				d.Barrier(th, bar)
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().HomeMigrations; got != 1 {
		t.Fatalf("HomeMigrations = %d, want 1", got)
	}
	if home, _, _ := d.PageInfo(pg); home != 2 {
		t.Fatalf("page home = %d, want 2", home)
	}
	for n := 0; n < nodes; n++ {
		e := d.Entry(n, pg)
		if e.Home != 2 {
			t.Fatalf("node %d entry home = %d, want 2", n, e.Home)
		}
		if e.Owner != (n == 2) {
			t.Fatalf("node %d owner = %v", n, e.Owner)
		}
	}
	// The data survived the move: read it back from yet another node.
	var got uint64
	rt.CreateThread(3, "reader", func(th *pm2.Thread) { got = d.ReadUint64(th, base) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 100+rounds-1 {
		t.Fatalf("read %d after migration, want %d", got, 100+rounds-1)
	}
	class, writer := d.PageClassOf(pg)
	if writer != 2 {
		t.Fatalf("classified writer = %d (%v), want 2", writer, class)
	}
}

// TestAccessRetriesOnMigratedNode closes the edge access.go only documented:
// a thread may migrate between FetchPage retries, and the retried access
// must run against the thread's NEW node's address space (and charge that
// node's fault counters), not the one it faulted on first.
func TestAccessRetriesOnMigratedNode(t *testing.T) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	reg := NewRegistry()
	d := New(rt, reg)
	// The migration policy in miniature: never fetch, send the thread to
	// the data instead. The retried access only succeeds if Access
	// re-resolves the node (and its Space) after the handler returns.
	h := &Hooks{
		ProtoName:    "go-to-data",
		OnReadFault:  func(f *Fault) { MigrateToOwner(f) },
		OnWriteFault: func(f *Fault) { MigrateToOwner(f) },
	}
	id := reg.Register("go-to-data", func(*DSM) Protocol { return h })
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(1, 8, nil) // homed (and only accessible) on node 1

	var seed *pm2.Thread
	rt.CreateThread(1, "seed", func(th *pm2.Thread) {
		seed = th
		d.WriteUint64(th, base, 4242)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if seed.Node() != 1 {
		t.Fatalf("seed thread moved to node %d", seed.Node())
	}

	var got uint64
	var endNode int
	var reader *pm2.Thread
	rt.CreateThread(0, "reader", func(th *pm2.Thread) {
		reader = th
		got = d.ReadUint64(th, base)
		endNode = th.Node()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 4242 {
		t.Fatalf("read %d through migrating retry, want 4242", got)
	}
	if endNode != 1 {
		t.Fatalf("reader finished on node %d, want 1 (migrated by the fault handler)", endNode)
	}
	if reader.Migrations() != 1 {
		t.Fatalf("reader migrated %d times, want 1", reader.Migrations())
	}
	// The fault is attributed to the node the thread was on when it
	// faulted; the successful retry on node 1 faults no further.
	if d.FaultsOn(0) != 1 || d.FaultsOn(1) != 0 {
		t.Fatalf("fault attribution = node0:%d node1:%d, want 1/0", d.FaultsOn(0), d.FaultsOn(1))
	}
}
