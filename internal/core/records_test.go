package core

import (
	"reflect"
	"testing"

	"dsmpm2/internal/freelist"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// dirty fills every field of the struct r points at, unexported ones
// included, with a non-zero value of its type.
func dirty(t *testing.T, r any) {
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := reflect.NewAt(v.Field(i).Type(), v.Field(i).Addr().UnsafePointer()).Elem()
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Uint64:
			f.SetUint(7)
		case reflect.Uint8:
			f.SetUint(1)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("stale")
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 3, 3))
		case reflect.Array:
			f.Index(0).Set(reflect.New(f.Type().Elem().Elem()))
		default:
			t.Fatalf("%T.%s: no dirty value for kind %v", r, v.Type().Field(i).Name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("%T.%s still zero after dirtying", r, v.Type().Field(i).Name)
		}
	}
}

// recycle is one record type's row of the table below: a record with every
// field dirtied, freed and taken again, is the same object and all zero — no
// stale Copyset, Data, Timing, entryLocked, ack or reply. With the net on it
// reads as sentinels and is withheld; with recovery on it is left alone.
func recycle[T any, P interface {
	*T
	reset(fill int)
}](t *testing.T, l *freelist.List[P], sentinels func(P) []int) {
	d := newDSM(1)
	r := P(new(T))
	dirty(t, r)
	put(d, l, r)
	if again, _ := l.Get(); again != r {
		t.Errorf("%T: freed record not reused", r)
	} else if !reflect.ValueOf(*again).IsZero() {
		t.Errorf("%T: recycled record starts stale: %+v", r, *again)
	}

	PoisonFreed = true
	defer func() { PoisonFreed = false }()
	dirty(t, r)
	put(d, l, r)
	if l.Len() != 0 {
		t.Errorf("%T: poisoned record offered for reuse", r)
	}
	for i, v := range sentinels(r) {
		if v != -1 {
			t.Errorf("%T: sentinel %d of a poisoned record reads %d, want -1", r, i, v)
		}
	}
	PoisonFreed = false

	d.EnableRecovery(RecoveryConfig{})
	dirty(t, r)
	want := *r
	put(d, l, r)
	if l.Len() != 0 || !reflect.DeepEqual(*r, want) {
		t.Errorf("%T: recovery on, yet the freed record was recycled or cleared", r)
	}
	if c := private(d, (*T)(r)); P(c) == r || !reflect.DeepEqual(*c, want) {
		t.Errorf("%T: recovery on, yet the handler's record is not a private copy", r)
	}
}

func TestRecycledRecordsStartClean(t *testing.T) {
	var p recPools
	recycle(t, &p.requests, func(r *Request) []int { return []int{r.Node, r.From, int(r.Page)} })
	recycle(t, &p.pages, func(m *PageMsg) []int { return []int{m.Node, m.From, int(m.Page), m.Owner, len(m.Data) - 1} })
	recycle(t, &p.invs, func(iv *Invalidate) []int { return []int{iv.Node, iv.From, int(iv.Page), iv.NewOwner} })
	recycle(t, &p.diffs, func(m *DiffMsg) []int { return []int{m.Node, m.From, len(m.Diffs) - 1} })
	recycle(t, &p.faults, func(f *Fault) []int { return []int{f.Node, int(f.Page), int(f.Addr)} })
	recycle(t, &p.timings, func(ft *FaultTiming) []int { return []int{int(ft.Total)} })
	recycle(t, &p.syncs, func(s *SyncEvent) []int { return []int{s.Node, s.Lock} })
}

// TestRecycledBatchKeepsOnlyItsBuffers: a flushed Batch comes back empty, with
// the buffers its last life grew — cleared of the diffs, records and calls
// they pointed at — and nothing else; poisoned, it loses the buffers too.
func TestRecycledBatchKeepsOnlyItsBuffers(t *testing.T) {
	d, rt, _ := outboxHarness(3)
	base := d.MustMalloc(0, PageSize, nil)
	pg := d.Space(0).PageOf(base)
	rt.CreateThread(0, "flusher", func(th *pm2.Thread) {
		b := d.NewBatch(th)
		for dest := 1; dest < 3; dest++ {
			b.Invalidate(dest, pg, -1)
			df := &memory.Diff{Page: pg}
			df.MergeRecorded(0, []byte{byte(dest)})
			b.Diff(dest, df, false)
		}
		b.Flush(true)
		again := d.NewBatch(th)
		if again != b {
			t.Fatal("flushed batch not reused")
		}
		if again.d != d || again.t != th || again.node != 0 || len(again.ops)+len(again.elems)+len(again.flights) != 0 {
			t.Errorf("recycled batch starts stale: %+v", *again)
		}
		if cap(again.ops) < 4 || cap(again.elems) < 4 || cap(again.flights) < 2 {
			t.Errorf("recycled batch lost its buffers: caps %d/%d/%d", cap(again.ops), cap(again.elems), cap(again.flights))
		}
		for _, op := range again.ops[:cap(again.ops)] {
			if op.diff != nil {
				t.Error("recycled batch still points at a diff")
			}
		}
		for _, el := range again.elems[:cap(again.elems)] {
			if el.Arg != nil {
				t.Error("recycled batch still points at a sent record")
			}
		}
		for _, f := range again.flights[:cap(again.flights)] {
			if f.call != nil || f.run != nil || f.elems != nil {
				t.Error("recycled batch still points at a finished flight")
			}
		}
		PoisonFreed = true
		defer func() { PoisonFreed = false }()
		again.Flush(true)
		if again.node != -1 || again.d != nil || cap(again.ops) != 0 {
			t.Errorf("poisoned batch keeps state: %+v", *again)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonCatchesARecordKeptPastItsRoutine is the net's own test: a protocol
// that stores the Invalidate it was handed reads sentinels — a page of all
// ones, a nil thread — once its routine has returned.
func TestPoisonCatchesARecordKeptPastItsRoutine(t *testing.T) {
	PoisonFreed = true
	defer func() { PoisonFreed = false }()
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	reg := NewRegistry()
	var kept *Invalidate
	reg.Register("keeper", func(*DSM) Protocol {
		return &Hooks{ProtoName: "keeper", OnInvalidate: func(iv *Invalidate) { kept = iv }}
	})
	d := New(rt, reg, DefaultCosts())
	d.SetDefaultProtocol(0)
	pg := d.Space(0).PageOf(d.MustMalloc(0, PageSize, nil))
	rt.CreateThread(0, "writer", func(th *pm2.Thread) {
		var cs NodeSet
		cs.Add(1)
		InvalidateCopies(d, th, pg, cs, -1)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if kept == nil || kept.Page != ^Page(0) || kept.Node != -1 || kept.Thread != nil || kept.ack != nil {
		t.Fatalf("a record kept past its routine still reads as live: %+v", kept)
	}
}

// TestMigratingFaultFreesItsRecordOnce: a migrate_thread-style handler leaves
// the thread on another node than the fault started on; the Fault is freed
// there, once, and the access completes on the page's node.
func TestMigratingFaultFreesItsRecordOnce(t *testing.T) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	reg := NewRegistry()
	reg.Register("mover", func(*DSM) Protocol {
		return &Hooks{ProtoName: "mover", OnReadFault: MigrateToOwner, OnWriteFault: MigrateToOwner}
	})
	d := New(rt, reg, DefaultCosts())
	d.SetDefaultProtocol(0)
	base := d.MustMalloc(0, PageSize, nil)
	var end int
	rt.CreateThread(1, "visitor", func(th *pm2.Thread) {
		d.WriteUint64(th, base, 9)
		end = th.Node()
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 0 {
		t.Fatalf("thread ended on node %d, want the page's node 0", end)
	}
	if n := d.recs.faults.Len(); n != 1 {
		t.Fatalf("%d fault records pooled where the thread ended, want 1", n)
	}
	if ft := d.Timings().All(); len(ft) != 1 || ft[0].Migration == 0 || ft[0].Total < ft[0].Migration+sim.Duration(ft[0].Detect) {
		t.Fatalf("fault timing lost with the record: %+v", ft)
	}
}
