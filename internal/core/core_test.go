package core

import (
	"fmt"
	"testing"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// localProto is a minimal single-node protocol for exercising core plumbing:
// it never needs to fetch because tests allocate everything on the accessing
// node. Hook invocations are counted so dispatch can be asserted.
func localProto(name string) (*Hooks, *hookCounts) {
	c := &hookCounts{}
	h := &Hooks{
		ProtoName:     name,
		OnReadFault:   func(*Fault) { c.readFault++ },
		OnWriteFault:  func(*Fault) { c.writeFault++ },
		OnLockAcquire: func(*SyncEvent) { c.acquire++ },
		OnLockRelease: func(*SyncEvent) { c.release++ },
	}
	return h, c
}

type hookCounts struct {
	readFault, writeFault, acquire, release int
}

func newDSM(nodes int) *DSM {
	rt := pm2.NewRuntime(pm2.Config{Nodes: nodes, Network: madeleine.BIPMyrinet, Seed: 1})
	return New(rt, NewRegistry())
}

func TestMallocRequiresProtocol(t *testing.T) {
	d := newDSM(1)
	if _, err := d.Malloc(0, 64, nil); err == nil {
		t.Fatal("Malloc with no default protocol succeeded")
	}
}

func TestMallocAndLocalAccess(t *testing.T) {
	d := newDSM(1)
	h, _ := localProto("local")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	base := d.MustMalloc(0, 128, nil)
	rt := d.Runtime()
	var got uint64
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		d.WriteUint64(th, base+16, 4242)
		got = d.ReadUint64(th, base+16)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 4242 {
		t.Fatalf("round trip = %d", got)
	}
	st := d.Stats()
	if st.Allocs != 1 || st.AllocBytes != PageSize {
		t.Fatalf("alloc stats = %+v", st)
	}
}

func TestMallocBadHome(t *testing.T) {
	d := newDSM(2)
	h, _ := localProto("p")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	if _, err := d.Malloc(0, 64, &Attr{Protocol: -1, Home: 7}); err == nil {
		t.Fatal("Malloc with out-of-range home succeeded")
	}
}

func TestPageInfoRecorded(t *testing.T) {
	d := newDSM(2)
	h, _ := localProto("p")
	id := d.CreateProtocol(h)
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(1, 3*PageSize, nil)
	pg := d.Space(0).PageOf(base)
	for i := Page(0); i < 3; i++ {
		home, proto, ok := d.PageInfo(pg + i)
		if !ok || home != 1 || proto != id {
			t.Fatalf("page %d info = (%d,%d,%v)", pg+i, home, proto, ok)
		}
	}
	if _, _, ok := d.PageInfo(pg + 99); ok {
		t.Fatal("PageInfo invented an allocation")
	}
}

func TestHomeStartsWritable(t *testing.T) {
	d := newDSM(2)
	h, _ := localProto("p")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	base := d.MustMalloc(1, 8, nil)
	pg := d.Space(1).PageOf(base)
	if got := d.Space(1).AccessOf(pg); got != memory.ReadWrite {
		t.Fatalf("home access = %v, want rw-", got)
	}
	if got := d.Space(0).AccessOf(pg); got != memory.NoAccess {
		t.Fatalf("non-home access = %v, want ---", got)
	}
	if !d.Entry(1, pg).Owner {
		t.Fatal("home not owner")
	}
}

func TestFaultDispatchAndCost(t *testing.T) {
	d := newDSM(1)
	// Protocol that grants access on fault, so we can observe the charge.
	var h *Hooks
	h = &Hooks{
		ProtoName: "granter",
		OnReadFault: func(f *Fault) {
			d.Space(f.Node).SetAccess(f.Page, memory.ReadOnly)
		},
		OnWriteFault: func(f *Fault) {
			d.Space(f.Node).SetAccess(f.Page, memory.ReadWrite)
		},
	}
	id := d.CreateProtocol(h)
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	d.Space(0).Drop(pg) // force faults
	rt := d.Runtime()
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		d.ReadUint64(th, base)                        // read fault: granter sets r--
		d.WriteUint64(th, base, 1)                    // write fault: granter sets rw-
		if th.Now() != sim.Time(22*sim.Microsecond) { // two faults at 11us each
			t.Errorf("fault charges = %v, want 22us", th.Now())
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.ReadFaults != 1 || st.WriteFaults != 1 {
		t.Fatalf("fault stats = %+v", st)
	}
	if d.Timings().Len() != 2 {
		t.Fatalf("timing log has %d records, want 2", d.Timings().Len())
	}
}

func TestUnallocatedAccessPanics(t *testing.T) {
	d := newDSM(1)
	h, _ := localProto("p")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	rt := d.Runtime()
	panicked := false
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		d.ReadUint64(th, 0x400)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("access to unallocated page did not panic")
	}
}

func TestBrokenProtocolDetected(t *testing.T) {
	d := newDSM(1)
	// A protocol whose fault handler does nothing can never satisfy the
	// access; the core must fail fast instead of spinning forever.
	h := &Hooks{ProtoName: "broken"}
	d.SetDefaultProtocol(d.CreateProtocol(h))
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	d.Space(0).Drop(pg)
	rt := d.Runtime()
	panicked := false
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		d.ReadUint64(th, base)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("endless fault loop not detected")
	}
}

func TestLockMutualExclusionAndHooks(t *testing.T) {
	d := newDSM(2)
	h, counts := localProto("p")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	base := d.MustMalloc(0, 8, nil)
	_ = base
	lock := d.NewLock(1)
	if d.locks[lock].home != 1 {
		t.Fatal("lock home wrong")
	}
	rt := d.Runtime()
	inside, maxInside := 0, 0
	for n := 0; n < 2; n++ {
		node := n
		for i := 0; i < 3; i++ {
			rt.CreateThread(node, fmt.Sprintf("w%d_%d", node, i), func(th *pm2.Thread) {
				d.Acquire(th, lock)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				th.Advance(1000)
				inside--
				d.Release(th, lock)
			})
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("lock admitted %d threads at once", maxInside)
	}
	if counts.acquire != 6 || counts.release != 6 {
		t.Fatalf("hook counts = %+v, want 6/6", counts)
	}
	st := d.Stats()
	if st.Acquires != 6 || st.Releases != 6 {
		t.Fatalf("lock stats = %+v", st)
	}
}

func TestReleaseOfUnheldLockPanics(t *testing.T) {
	d := newDSM(1)
	h, _ := localProto("p")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	lock := d.NewLock(0)
	rt := d.Runtime()
	panicked := false
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		d.Release(th, lock)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("release of unheld lock not reported to the releasing thread")
	}
}

func TestBarrierRunsHooksAroundWait(t *testing.T) {
	d := newDSM(2)
	h, counts := localProto("p")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	d.MustMalloc(0, 8, nil)
	bar := d.NewBarrier(2)
	rt := d.Runtime()
	var times []int64
	for n := 0; n < 2; n++ {
		node := n
		rt.CreateThread(node, fmt.Sprintf("p%d", node), func(th *pm2.Thread) {
			th.Advance(sim.Duration(node) * 5 * sim.Microsecond)
			d.Barrier(th, bar)
			times = append(times, int64(th.Now()))
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if counts.release != 2 || counts.acquire != 2 {
		t.Fatalf("barrier hooks = %+v, want release=2 acquire=2", counts)
	}
	if d.Stats().Barriers != 2 {
		t.Fatalf("barrier stats = %d", d.Stats().Barriers)
	}
}

func TestObjectAllocationNeverStraddles(t *testing.T) {
	d := newDSM(2)
	h, _ := localProto("p")
	id := d.CreateProtocol(h)
	d.SetDefaultProtocol(id)
	// Allocate many odd-sized objects; none may straddle a page.
	for i := 0; i < 200; i++ {
		nf := 1 + i%63
		o := d.MustNewObject(i%2, nf, id)
		first := uint64(o.Base) / PageSize
		last := (uint64(o.Base) + uint64(nf*FieldBytes) - 1) / PageSize
		if first != last {
			t.Fatalf("object %d (%d fields) straddles pages %d..%d", i, nf, first, last)
		}
	}
}

func TestObjectTooBig(t *testing.T) {
	d := newDSM(1)
	h, _ := localProto("p")
	id := d.CreateProtocol(h)
	d.SetDefaultProtocol(id)
	if _, err := d.NewObject(0, PageSize/FieldBytes+1, id); err == nil {
		t.Fatal("page-sized+1 object allocation succeeded")
	}
	if _, err := d.NewObject(0, 0, id); err == nil {
		t.Fatal("zero-field object allocation succeeded")
	}
}

func TestObjRefFieldBounds(t *testing.T) {
	o := ObjRef{Base: 0x1000, Fields: 3}
	if o.Field(2) != 0x1000+16 {
		t.Fatalf("field addr = %#x", o.Field(2))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range field did not panic")
		}
	}()
	o.Field(3)
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	id := r.Register("alpha", func(*DSM) Protocol { h, _ := localProto("alpha"); return h })
	if got, ok := r.Lookup("alpha"); !ok || got != id {
		t.Fatal("lookup failed")
	}
	if r.Name(id) != "alpha" {
		t.Fatal("name failed")
	}
	if _, ok := r.Lookup("beta"); ok {
		t.Fatal("lookup invented a protocol")
	}
	if len(r.Names()) != 1 || r.Len() != 1 {
		t.Fatal("names/len wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Register("alpha", func(*DSM) Protocol { return nil })
}

func TestHooksNilSafe(t *testing.T) {
	h := &Hooks{ProtoName: "empty"}
	h.ReadFaultHandler(nil)
	h.WriteFaultHandler(nil)
	h.ReadServer(nil)
	h.WriteServer(nil)
	h.InvalidateServer(nil)
	h.ReceivePageServer(nil)
	h.LockAcquire(nil)
	h.LockRelease(nil)
	if h.Name() != "empty" {
		t.Fatal("name")
	}
}

func TestEntryCopysetOps(t *testing.T) {
	e := &Entry{}
	e.AddCopyset(3)
	e.AddCopyset(1)
	e.AddCopyset(3) // dup ignored
	if e.Copyset.Len() != 2 || !e.InCopyset(1) || !e.InCopyset(3) || e.InCopyset(2) {
		t.Fatalf("copyset = %v", e.Copyset)
	}
	e.RemoveCopyset(3)
	if e.InCopyset(3) {
		t.Fatal("remove failed")
	}
	e.AddCopyset(9)
	e.AddCopyset(4)
	got := e.TakeCopyset().AppendTo(nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 9 {
		t.Fatalf("TakeCopyset = %v, want sorted [1 4 9]", got)
	}
	if !e.Copyset.Empty() {
		t.Fatal("copyset not emptied")
	}
}

func TestTimingLogRing(t *testing.T) {
	var l TimingLog
	for i := 0; i < timingCap+10; i++ {
		l.Add(&FaultTiming{Detect: sim.Duration(i + 1)})
	}
	all := l.All()
	if len(all) != timingCap {
		t.Fatalf("ring holds %d, want %d", len(all), timingCap)
	}
	if all[0].Detect != sim.Duration(11) {
		t.Fatalf("oldest record = %v, want 11 (ring evicted wrong end)", all[0].Detect)
	}
	mean, n := l.MeanTiming("")
	if n != timingCap || mean.Detect == 0 {
		t.Fatalf("mean over %d records = %+v", n, mean)
	}
	if _, n := l.MeanTiming("nosuch"); n != 0 {
		t.Fatal("mean matched a nonexistent protocol")
	}
}

// TestTypedHitDoesNotAllocate pins the core's half of the access path: on a
// present page the typed accessors decode from the frame and never reach
// Access, so they allocate nothing.
func TestTypedHitDoesNotAllocate(t *testing.T) {
	d := newDSM(1)
	h, counts := localProto("local")
	d.SetDefaultProtocol(d.CreateProtocol(h))
	base := d.MustMalloc(0, 128, nil)
	rt := d.Runtime()
	allocs := -1.0
	rt.CreateThread(0, "w", func(th *pm2.Thread) {
		allocs = testing.AllocsPerRun(100, func() {
			d.WriteUint64(th, base+16, d.ReadUint64(th, base+16)+1)
			d.WriteUint32(th, base+32, d.ReadUint32(th, base+32)+1)
		})
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 || counts.readFault+counts.writeFault != 0 {
		t.Fatalf("present-page typed accesses: %v allocs/run, %d faults", allocs, counts.readFault+counts.writeFault)
	}
	if got := d.Stats(); got.ReadFaults+got.WriteFaults != 0 {
		t.Fatalf("hits were counted as faults: %+v", got)
	}
}

// TestTypedMissTakesTheFaultPath checks the other side of the split: a typed
// access the Space refuses runs the protocol exactly as Access does.
func TestTypedMissTakesTheFaultPath(t *testing.T) {
	d := newDSM(2)
	h, counts := localProto("grant")
	h.OnReadFault = func(f *Fault) {
		counts.readFault++
		d.Space(f.Node).SetAccess(f.Page, memory.ReadOnly)
	}
	h.OnWriteFault = func(f *Fault) {
		counts.writeFault++
		d.Space(f.Node).SetAccess(f.Page, memory.ReadWrite)
	}
	d.SetDefaultProtocol(d.CreateProtocol(h))
	base := d.MustMalloc(0, 64, nil) // homed on node 0; node 1 holds nothing
	rt := d.Runtime()
	var elapsed sim.Duration
	rt.CreateThread(1, "w", func(th *pm2.Thread) {
		start := th.Now()
		if v := d.ReadUint64(th, base); v != 0 {
			t.Errorf("read of a fresh page = %d", v)
		}
		d.WriteUint32(th, base+8, 7)
		if v := d.ReadUint32(th, base+8); v != 7 {
			t.Errorf("read back %d, want 7", v)
		}
		elapsed = th.Now().Sub(start)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if counts.readFault != 1 || counts.writeFault != 1 {
		t.Fatalf("faults = %d read, %d write; want one of each", counts.readFault, counts.writeFault)
	}
	if want := 2 * d.Costs().Fault; elapsed != want {
		t.Fatalf("two faults cost %v of virtual time, want %v", elapsed, want)
	}
}
