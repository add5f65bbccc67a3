package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
)

// traceEvent is one handler activation observed during an outbox flush: the
// virtual time it ran at, what ran, where. Two flushes are behaviourally
// identical iff their event sequences match exactly.
type traceEvent struct {
	at   int64
	kind string
	page Page
	node int
}

// outboxHarness builds a DSM whose only protocol records every invalidation
// and diff delivery, so a flush's full wire behaviour can be compared
// across runs.
func outboxHarness(nodes int) (*DSM, *pm2.Runtime, *[]traceEvent) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 1})
	reg := NewRegistry()
	trace := &[]traceEvent{}
	var d *DSM
	reg.Register("recorder", func(*DSM) Protocol {
		return &Hooks{
			ProtoName: "recorder",
			OnInvalidate: func(iv *Invalidate) {
				*trace = append(*trace, traceEvent{int64(iv.Thread.Now()), "inv", iv.Page, iv.Node})
				DropCopy(iv)
			},
			OnDiffServer: func(dm *DiffMsg) {
				for _, df := range dm.Diffs {
					*trace = append(*trace, traceEvent{int64(dm.Thread.Now()), "diff", df.Page, dm.Node})
				}
			},
		}
	})
	d = New(rt, reg, DefaultCosts())
	id, _ := reg.Lookup("recorder")
	d.SetDefaultProtocol(id)
	return d, rt, trace
}

// TestBatchFlushOrderDeterministic is the determinism property test for the
// outbox: queueing the same operations in any order must produce the exact
// same wire behaviour — every handler fires at the same virtual time on the
// same node, and the run's clocks and counters match — because Flush
// canonicalizes to (destination ascending, page ascending).
func TestBatchFlushOrderDeterministic(t *testing.T) {
	const nodes, pages = 4, 6
	type op struct {
		inv     bool
		dest    int
		page    int // page index into the allocated run
		payload byte
	}
	var ops []op
	for pg := 0; pg < pages; pg++ {
		for dest := 1; dest < nodes; dest++ {
			ops = append(ops, op{inv: true, dest: dest, page: pg})
			if (pg+dest)%2 == 0 {
				ops = append(ops, op{dest: dest, page: pg, payload: byte(pg*16 + dest)})
			}
		}
	}
	// Every operation rides one batch, flushed once.
	t.Run("batched", func(t *testing.T) {
		run := func(perm []int) ([]traceEvent, int64, Stats) {
			d, rt, trace := outboxHarness(nodes)
			base := d.MustMalloc(0, pages*PageSize, nil)
			first := d.Space(0).PageOf(base)
			rt.CreateThread(0, "flusher", func(th *pm2.Thread) {
				b := d.NewBatch(th)
				for _, i := range perm {
					o := ops[i]
					if o.inv {
						b.Invalidate(o.dest, first+Page(o.page), -1)
					} else {
						df := &memory.Diff{Page: first + Page(o.page)}
						df.MergeRecorded(0, []byte{o.payload})
						b.Diff(o.dest, df, false)
					}
				}
				b.Flush(true)
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			return *trace, int64(rt.Now()), d.Stats()
		}
		identity := make([]int, len(ops))
		for i := range identity {
			identity[i] = i
		}
		wantTrace, wantNow, wantStats := run(identity)
		if len(wantTrace) == 0 {
			t.Fatal("flush produced no handler activations; the harness is broken")
		}
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 8; trial++ {
			perm := rng.Perm(len(ops))
			gotTrace, gotNow, gotStats := run(perm)
			if gotNow != wantNow {
				t.Fatalf("trial %d: final clock %d, want %d (insertion order leaked into timing)", trial, gotNow, wantNow)
			}
			if !reflect.DeepEqual(gotTrace, wantTrace) {
				t.Fatalf("trial %d: handler trace diverged under shuffled insertion\ngot  %v\nwant %v", trial, gotTrace, wantTrace)
			}
			if gotStats != wantStats {
				t.Fatalf("trial %d: stats diverged: %+v vs %+v", trial, gotStats, wantStats)
			}
		}
	})
}

// TestBatchFlushCoalescesEnvelopes pins the aggregation arithmetic: N
// operations to K destinations depart as K envelopes.
func TestBatchFlushCoalescesEnvelopes(t *testing.T) {
	const nodes = 4
	d, rt, _ := outboxHarness(nodes)
	base := d.MustMalloc(0, 2*PageSize, nil)
	first := d.Space(0).PageOf(base)
	before := d.Stats()
	rt.CreateThread(0, "flusher", func(th *pm2.Thread) {
		b := d.NewBatch(th)
		for dest := 1; dest < nodes; dest++ {
			b.Invalidate(dest, first, -1)
			b.Invalidate(dest, first+1, -1)
			df := &memory.Diff{Page: first}
			df.MergeRecorded(0, []byte{1})
			b.Diff(dest, df, false)
		}
		b.Flush(true)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if ops := st.Sends - before.Sends; ops != 9 {
		t.Fatalf("%d ops sent, want 9", ops)
	}
	if envs := st.Envelopes - before.Envelopes; envs != 3 { // one per destination
		t.Fatalf("%d envelopes, want 3", envs)
	}
	if acks := st.InvAcks - before.InvAcks; acks != 6 {
		t.Fatalf("%d invalidation acks, want 6", acks)
	}
}

// TestBatchFlushDedupsInvalidations pins the duplicate-invalidation rule:
// queueing the same page for the same destination several times ships (and
// acknowledges) it exactly once per flush.
func TestBatchFlushDedupsInvalidations(t *testing.T) {
	const nodes = 3
	d, rt, trace := outboxHarness(nodes)
	base := d.MustMalloc(0, 2*PageSize, nil)
	first := d.Space(0).PageOf(base)
	rt.CreateThread(0, "flusher", func(th *pm2.Thread) {
		b := d.NewBatch(th)
		b.Invalidate(1, first, -1)
		b.Invalidate(1, first, -1) // exact duplicate
		b.Invalidate(1, first, 2)  // same page, different owner hint: last hint wins
		b.Invalidate(1, first+1, -1)
		b.Invalidate(2, first, -1) // other destination: independent
		b.Flush(true)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(*trace) != 3 {
		t.Fatalf("%d invalidations ran, want 3 (deduped)", len(*trace))
	}
	if st := d.Stats(); st.Invalidations != 3 || st.InvAcks != 3 {
		t.Fatalf("Invalidations=%d InvAcks=%d, want 3/3", st.Invalidations, st.InvAcks)
	}
}

// TestWriteNoticeRoundTrip checks the piggyback plumbing end to end at the
// core level: notices queued before a barrier ride it, every participant
// applies the canonical union, and stale non-writer copies are gone after
// the barrier while the sole writer's copy and the home's reference copy
// survive.
func TestWriteNoticeRoundTrip(t *testing.T) {
	const nodes = 3
	d, rt, _ := outboxHarness(nodes)
	base := d.MustMalloc(0, PageSize, nil)
	pg := d.Space(0).PageOf(base)
	// Give nodes 1 and 2 read copies, registered in the home's copyset.
	for n := 1; n < nodes; n++ {
		d.Space(n).SetAccess(pg, memory.ReadOnly)
		d.Entry(0, pg).AddCopyset(n)
	}
	bar := d.NewBarrier(nodes)
	for n := 0; n < nodes; n++ {
		n := n
		rt.CreateThread(n, fmt.Sprintf("w%d", n), func(th *pm2.Thread) {
			if n == 1 {
				// Node 1 is the writer: its release queued a notice.
				d.QueueWriteNotice(th, bar, pg)
			}
			d.Barrier(th, bar)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// The home's copyset stays a superset of the holders (never pruned at
	// a barrier — see applyNotice); the writer must still be a member.
	if e := d.Entry(0, pg); !e.InCopyset(1) {
		t.Fatalf("home copyset after barrier = %v, writer 1 must remain a member", e.Copyset)
	}
	if d.Space(1).AccessOf(pg) == memory.NoAccess {
		t.Fatal("sole writer's copy was dropped; it is the freshest replica")
	}
	if d.Space(2).AccessOf(pg) != memory.NoAccess {
		t.Fatal("stale reader copy survived the barrier notice")
	}
	if d.Stats().Notices != 1 {
		t.Fatalf("Notices = %d, want 1", d.Stats().Notices)
	}
}

// TestBatchFlushOrdersSamePageDiffsByContent: two diffs of ONE page queued to
// one destination reach it in content order whichever was queued first — the
// flat list's stable sort falls through (destination, kind, page) to the
// diffs' bytes — and queueing the same diff twice delivers it twice.
func TestBatchFlushOrdersSamePageDiffsByContent(t *testing.T) {
	run := func(first, second byte) ([]byte, int64) {
		rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
		reg := NewRegistry()
		var got []byte
		reg.Register("recorder", func(*DSM) Protocol {
			return &Hooks{ProtoName: "recorder", OnDiffServer: func(dm *DiffMsg) {
				for _, df := range dm.Diffs {
					got = append(got, df.Entries[0].Data[0])
				}
			}}
		})
		d := New(rt, reg, DefaultCosts())
		d.SetDefaultProtocol(0)
		pg := d.Space(0).PageOf(d.MustMalloc(0, PageSize, nil))
		rt.CreateThread(0, "flusher", func(th *pm2.Thread) {
			b := d.NewBatch(th)
			for _, v := range []byte{first, second} {
				df := &memory.Diff{Page: pg}
				df.MergeRecorded(0, []byte{v})
				b.Diff(1, df, false)
			}
			b.Flush(true)
		})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return got, int64(rt.Now())
	}
	ab, nowAB := run(3, 9)
	ba, nowBA := run(9, 3)
	if !reflect.DeepEqual(ab, []byte{3, 9}) || !reflect.DeepEqual(ba, ab) || nowAB != nowBA {
		t.Errorf("same-page diffs arrived as %v (clock %d) and %v (clock %d), want [3 9] both times",
			ab, nowAB, ba, nowBA)
	}
	if twice, _ := run(5, 5); !reflect.DeepEqual(twice, []byte{5, 5}) {
		t.Errorf("a diff queued twice arrived as %v, want [5 5]", twice)
	}
}

// TestOutboxPoisoned reruns this file's flush tests with the use-after-free
// net on (see PoisonFreed): every record and Batch a flush frees reads as
// sentinels from then on and is never reused, so a flush that touched one
// after its consumer freed it fails here instead of reading a successor.
func TestOutboxPoisoned(t *testing.T) {
	PoisonFreed = true
	defer func() { PoisonFreed = false }()
	t.Run("order", TestBatchFlushOrderDeterministic)
	t.Run("coalesce", TestBatchFlushCoalescesEnvelopes)
	t.Run("dedup", TestBatchFlushDedupsInvalidations)
	t.Run("same-page-diffs", TestBatchFlushOrdersSamePageDiffsByContent)
	t.Run("notices", TestWriteNoticeRoundTrip)
}
