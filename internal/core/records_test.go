package core

import (
	"reflect"
	"testing"
	"unsafe"

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
		case reflect.Uint64, reflect.Uint32:
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
			if f.Type().Elem().Kind() == reflect.Struct {
				for j := 0; j < f.Len(); j++ {
					dirty(t, f.Index(j).Addr().Interface())
				}
			}
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

// zeroed is the clean check of a record that keeps nothing: every field zero.
func zeroed[P any](r P) bool { return reflect.ValueOf(r).Elem().IsZero() }

// emptiedDiff is the diff's clean check: no page and no entries, with the
// entry list and byte buffer kept as capacity for the next Compute — and no
// entry in that capacity still pointing at the bytes of its last life.
func emptiedDiff(r *diffRec) bool {
	buf := reflect.ValueOf(r).Elem().FieldByName("buf")
	if r.Page != 0 || r.Refs != 0 || len(r.Entries) != 0 || cap(r.Entries) != 3 || buf.Len() != 0 || buf.Cap() != 3 {
		return false
	}
	for _, e := range r.Entries[:cap(r.Entries)] {
		if e.Off != 0 || e.Data != nil {
			return false
		}
	}
	return true
}

// recycle is one record type's row of the table below: a record with every
// field dirtied, freed and taken again, is the same object and clean — all
// zero, so no stale Copyset, Data, Timing, entryLocked, ack or reply; a diff
// keeps only its emptied buffers. With the net on it reads as sentinels and
// is withheld.
func recycle[T any, P interface {
	*T
	reset(fill int)
}](t *testing.T, l *freelist.List[P], clean func(P) bool, sentinels func(P) []int) {
	r := P(new(T))
	dirty(t, r)
	put(l, r)
	if again, _ := l.Get(); again != r {
		t.Errorf("%T: freed record not reused", r)
	} else if !clean(again) {
		t.Errorf("%T: recycled record starts stale: %+v", r, *again)
	}

	PoisonFreed = true
	defer func() { PoisonFreed = false }()
	dirty(t, r)
	put(l, r)
	if l.Len() != 0 {
		t.Errorf("%T: poisoned record offered for reuse", r)
	}
	for i, v := range sentinels(r) {
		if v != -1 {
			t.Errorf("%T: sentinel %d of a poisoned record reads %d, want -1", r, i, v)
		}
	}
}

func TestRecycledRecordsStartClean(t *testing.T) {
	var p recPools
	recycle(t, &p.requests, zeroed, func(r *Request) []int { return []int{r.Node, r.From, int(r.Page)} })
	recycle(t, &p.pages, zeroed, func(m *PageMsg) []int { return []int{m.Node, m.From, int(m.Page), m.Owner, len(m.Data) - 1} })
	recycle(t, &p.invs, zeroed, func(iv *Invalidate) []int { return []int{iv.Node, iv.From, int(iv.Page), iv.NewOwner} })
	recycle(t, &p.diffMsgs, zeroed, func(m *DiffMsg) []int { return []int{m.Node, m.From, len(m.Diffs) - 1} })
	recycle(t, &p.diffs, emptiedDiff, func(r *diffRec) []int { return []int{int(r.Page), len(r.Entries) - 1} })
	recycle(t, &p.faults, zeroed, func(f *Fault) []int { return []int{f.Node, int(f.Page), int(f.Addr)} })
	recycle(t, &p.timings, zeroed, func(ft *FaultTiming) []int { return []int{int(ft.Total)} })
	recycle(t, &p.syncs, zeroed, func(s *SyncEvent) []int { return []int{s.Node, s.Lock} })
}

// TestRecoveryRecyclesSharedRecords holds the two records that may outlive
// their first holder to the one rule: a diff an envelope shares with its
// sender goes back to the pool when the second of them lets go, not the
// first; and the timing the ring evicts goes back to its pool, out of reach
// of a late response that still carries it.
func TestRecoveryRecyclesSharedRecords(t *testing.T) {
	d := newDSM(1)
	df := NewDiff(d)
	df.Compute(Page(3), make([]byte, 16), []byte{15: 1}, 0)
	df.Refs++ // shipped: the envelope holds it beside the sender
	FreeDiff(d, df)
	if n := d.recs.diffs.Len(); n != 0 || df.Page != 3 || len(df.Entries) != 1 {
		t.Errorf("a diff still held was recycled (%d pooled)", n)
	}
	FreeDiff(d, df)
	if n := d.recs.diffs.Len(); n != 1 {
		t.Errorf("%d diffs pooled after the last holder let go, want 1", n)
	}

	first := d.recs.newTiming()
	d.faultSeq++
	first.seq, first.Total = d.faultSeq, 7
	late := PageMsg{Timing: first, ftSeq: first.seq}
	d.logTiming(first)
	if liveTiming(late.Timing, late.ftSeq) != first {
		t.Error("a response cannot write the timing of a logged fault")
	}
	for i := 0; i < timingCap; i++ { // the last one evicts first
		d.logTiming(d.recs.newTiming())
	}
	if n := d.recs.timings.Len(); n != 1 {
		t.Errorf("%d evicted timings pooled, want 1", n)
	}
	if liveTiming(late.Timing, late.ftSeq) != nil {
		t.Error("a late response can still write an evicted timing")
	}
	if again := d.recs.newTiming(); again != first {
		t.Error("the evicted timing does not serve the next fault")
	}
}

// TestPoisonedTimingStaysOutOfItsChunk: timing records are carved out of
// chunks, so under PoisonFreed a record the ring evicts is withheld while its
// chunk-mates are still logged; newTiming must never offer it again, and the
// eviction must not touch them.
func TestPoisonedTimingStaysOutOfItsChunk(t *testing.T) {
	PoisonFreed = true
	defer func() { PoisonFreed = false }()
	d := newDSM(1)
	chunk := make([]*FaultTiming, timingChunk)
	for i := range chunk {
		chunk[i] = d.recs.newTiming()
		chunk[i].Total = sim.Duration(i + 1)
		d.logTiming(chunk[i])
	}
	for i, ft := range chunk {
		if uintptr(unsafe.Pointer(ft))-uintptr(unsafe.Pointer(chunk[0])) != uintptr(i)*unsafe.Sizeof(*ft) {
			t.Fatalf("record %d is not carved from the first chunk", i)
		}
	}
	for i := timingChunk; i <= timingCap; i++ { // the last one evicts chunk[0]
		d.logTiming(d.recs.newTiming())
	}
	if chunk[0].Total != -1 {
		t.Errorf("the evicted record reads Total %v, not the poison sentinel", chunk[0].Total)
	}
	for i, ft := range chunk[1:] {
		if ft.Total != sim.Duration(i+2) {
			t.Errorf("chunk-mate %d reads Total %v after the eviction, want %d", i+1, ft.Total, i+2)
		}
	}
	for i := 0; i < 2*timingChunk; i++ {
		if ft := d.recs.newTiming(); ft == chunk[0] {
			t.Fatalf("newTiming call %d handed out the poisoned record again", i)
		} else if ft.Total != 0 || ft.seq != 0 {
			t.Fatalf("newTiming call %d handed out a record in use: %+v", i, *ft)
		}
	}
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
		if cap(again.ops) < 4 || cap(again.elems) < 2 || cap(again.flights) < 2 {
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
			if f.call != nil || f.run != nil {
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
	d := New(rt, reg)
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

// TestPoisonCatchesADiffKeptPastDiffServer: the diffs a DiffServer is handed
// are freed with their message, so one kept past the routine reads as the
// all-ones page with no entries.
func TestPoisonCatchesADiffKeptPastDiffServer(t *testing.T) {
	PoisonFreed = true
	defer func() { PoisonFreed = false }()
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	var kept *memory.Diff
	d := New(rt, NewRegistry())
	d.SetDefaultProtocol(d.CreateProtocol(&Hooks{ProtoName: "keeper", OnDiffServer: func(dm *DiffMsg) {
		kept = dm.Diffs[0]
		if kept.Empty() {
			t.Error("DiffServer handed an empty diff")
		}
	}}))
	pg := d.Space(0).PageOf(d.MustMalloc(1, PageSize, nil))
	rt.CreateThread(0, "writer", func(th *pm2.Thread) {
		df := NewDiff(d)
		df.Compute(pg, make([]byte, 16), []byte{15: 1}, 0)
		SendDiffsHome(d, th, 1, df, true)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if kept == nil || kept.Page != ^Page(0) || kept.Entries != nil {
		t.Fatalf("a diff kept past DiffServer still reads as live: %+v", kept)
	}
}

// TestRecordedDiffsReturnToThePool is java_ic's release in miniature: each
// release records a put with RecordPut and ships TakeRecorded's diff home.
// The home frees each diff into the pool the next RecordPut takes from, so
// one record serves every release and the pool never grows.
func TestRecordedDiffsReturnToThePool(t *testing.T) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: 2, Network: madeleine.BIPMyrinet, Seed: 1})
	d := New(rt, NewRegistry())
	d.SetDefaultProtocol(d.CreateProtocol(&Hooks{ProtoName: "recorder", OnDiffServer: ApplyDiffs}))
	base := d.MustMalloc(0, PageSize, nil)
	pg := d.Space(0).PageOf(base)
	const releases = 100
	rt.CreateThread(1, "releaser", func(th *pm2.Thread) {
		e := d.Entry(1, pg)
		for i := 1; i <= releases; i++ {
			e.Lock(th)
			RecordPut(d, e, base+Addr(i%8*8), []byte{byte(i)})
			diff := TakeRecorded(e)
			e.Unlock(th)
			SendDiffsHome(d, th, 0, diff, true)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if n := d.recs.diffs.Len(); n != 1 {
		t.Fatalf("%d diffs pooled after %d releases, want 1", n, releases)
	}
	if got := d.Space(0).Frame(pg).Data[releases%8*8]; got != releases {
		t.Fatalf("home reads %d after the last release, want %d", got, releases)
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
	d := New(rt, reg)
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

// TestSwitchRecyclesHomeTwin: a protocol switch resets the home's entry and
// hands its twin back to the page-buffer pool and its recorded diff back to
// the record pool, rather than to the collector.
func TestSwitchRecyclesHomeTwin(t *testing.T) {
	d := newDSM(1)
	h, _ := localProto("local")
	proto := d.CreateProtocol(h)
	d.SetDefaultProtocol(proto)
	base := d.MustMalloc(0, PageSize, nil)
	pg := d.Space(0).PageOf(base)
	e := d.Entry(0, pg)
	EnsureTwin(d, 0, e)
	twin := e.ProtoData.(*twinData).twin
	RecordPut(d, e, base, []byte{1})
	recorded := e.ProtoData.(*twinData).dirty
	d.rt.CreateThread(0, "switch", func(th *pm2.Thread) {
		if err := d.SwitchProtocol(th, base, PageSize, proto); err != nil {
			t.Error(err)
		}
	})
	if err := d.rt.Run(); err != nil {
		t.Fatal(err)
	}
	if e.ProtoData != nil {
		t.Fatalf("the switch left protocol-private state %v", e.ProtoData)
	}
	if buf := d.bufs.Get(); &buf[0] != &twin[0] {
		t.Error("the home twin did not go back to the page-buffer pool")
	}
	if df := NewDiff(d); df != recorded {
		t.Error("the recorded diff did not go back to the record pool")
	}
}

// TestTwinChanged: a home release's compare reports whether the page changed
// since its twin, and recycles the twin into the page-buffer pool, with no
// twin, an unchanged page, a changed page and a dropped frame alike. It never
// takes a diff record: one taken and freed under PoisonFreed would not come
// back to the pool.
func TestTwinChanged(t *testing.T) {
	d := newDSM(1)
	h, _ := localProto("local")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	pg := d.Space(0).PageOf(d.MustMalloc(0, PageSize, nil))
	FreeDiff(d, NewDiff(d))
	PoisonFreed = true
	defer func() { PoisonFreed = false }()
	for _, tc := range []struct {
		name  string
		twin  bool
		after func() // runs once the twin is taken
		want  bool
	}{
		{"no twin", false, nil, false},
		{"unchanged page", true, func() {}, false},
		{"changed page", true, func() { d.Space(0).Frame(pg).Data[PageSize-1]++ }, true},
		{"dropped frame", true, func() { d.Space(0).Drop(pg) }, false},
	} {
		d.Space(0).SetAccess(pg, memory.ReadWrite)
		e := d.Entry(0, pg)
		var twin []byte
		if tc.twin {
			EnsureTwin(d, 0, e)
			twin = e.ProtoData.(*twinData).twin
			tc.after()
		}
		if got := TwinChanged(d, 0, e); got != tc.want || HasTwin(e) {
			t.Errorf("%s: TwinChanged = %v with twin left %v, want %v and none", tc.name, got, HasTwin(e), tc.want)
		}
		if n := d.recs.diffs.Len(); n != 1 {
			t.Errorf("%s: %d diff records pooled, want the 1 left untouched", tc.name, n)
		}
		if twin != nil {
			buf := d.bufs.Get()
			if &buf[0] != &twin[0] {
				t.Errorf("%s: the twin did not go back to the page-buffer pool", tc.name)
			}
			d.bufs.Put(buf)
		}
	}
}
