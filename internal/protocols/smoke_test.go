package protocols

import (
	"fmt"
	"testing"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
)

// harness builds a PM2 machine + DSM with all built-ins registered.
func harness(nodes int, prof *madeleine.Profile, seed int64) (*pm2.Runtime, *core.DSM, IDs) {
	rt := pm2.NewRuntime(pm2.Config{Nodes: nodes, Network: prof, Seed: seed})
	reg, ids := NewRegistry()
	d := core.New(rt, reg)
	return rt, d, ids
}

// runCounter increments a lock-protected shared counter from every node and
// checks the final value — the canonical consistency smoke test.
func runCounter(t *testing.T, proto func(IDs) core.ProtoID, nodes, incrPerThread int) {
	t.Helper()
	rt, d, ids := harness(nodes, madeleine.BIPMyrinet, 42)
	id := proto(ids)
	d.SetDefaultProtocol(id)
	base := d.MustMalloc(0, 8, nil)
	lock := d.NewLock(0)
	for n := 0; n < nodes; n++ {
		node := n
		rt.CreateThread(node, fmt.Sprintf("worker%d", node), func(th *pm2.Thread) {
			for i := 0; i < incrPerThread; i++ {
				d.Acquire(th, lock)
				v := d.ReadUint64(th, base)
				d.WriteUint64(th, base, v+1)
				d.Release(th, lock)
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("[%s] %v", d.RegistryName(id), err)
	}
	// Read back through node 0's protocol path.
	var got uint64
	rt.CreateThread(0, "reader", func(th *pm2.Thread) {
		d.Acquire(th, lock)
		got = d.ReadUint64(th, base)
		d.Release(th, lock)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	want := uint64(nodes * incrPerThread)
	if got != want {
		t.Fatalf("[%s] counter = %d, want %d", d.RegistryName(id), got, want)
	}
}

func TestSmokeCounterLiHudak(t *testing.T) {
	runCounter(t, func(i IDs) core.ProtoID { return i.LiHudak }, 4, 10)
}

func TestSmokeCounterMigrateThread(t *testing.T) {
	runCounter(t, func(i IDs) core.ProtoID { return i.MigrateThread }, 4, 10)
}

func TestSmokeCounterErcSW(t *testing.T) {
	runCounter(t, func(i IDs) core.ProtoID { return i.ErcSW }, 4, 10)
}

func TestSmokeCounterHbrcMW(t *testing.T) {
	runCounter(t, func(i IDs) core.ProtoID { return i.HbrcMW }, 4, 10)
}

func TestSmokeCounterHybrid(t *testing.T) {
	runCounter(t, func(i IDs) core.ProtoID { return i.Hybrid }, 4, 10)
}

func TestSmokeCounterAdaptive(t *testing.T) {
	runCounter(t, func(i IDs) core.ProtoID { return i.Adaptive }, 4, 10)
}

// Java protocols use the object API with a monitor lock.
func runJavaCounter(t *testing.T, ic bool) {
	t.Helper()
	rt, d, ids := harness(4, madeleine.SISCISCI, 7)
	id := ids.JavaPF
	if ic {
		id = ids.JavaIC
	}
	d.SetDefaultProtocol(id)
	obj := d.MustNewObject(0, 4, id)
	monitor := d.NewLock(0)
	for n := 0; n < 4; n++ {
		node := n
		rt.CreateThread(node, fmt.Sprintf("jworker%d", node), func(th *pm2.Thread) {
			for i := 0; i < 10; i++ {
				d.Acquire(th, monitor)
				v := d.GetField(th, obj, 0)
				d.PutField(th, obj, 0, v+1)
				d.Release(th, monitor)
			}
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var got uint64
	rt.CreateThread(1, "jreader", func(th *pm2.Thread) {
		d.Acquire(th, monitor)
		got = d.GetField(th, obj, 0)
		d.Release(th, monitor)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 40 {
		t.Fatalf("[%s] counter = %d, want 40", d.RegistryName(id), got)
	}
}

func TestSmokeCounterJavaIC(t *testing.T) { runJavaCounter(t, true) }
func TestSmokeCounterJavaPF(t *testing.T) { runJavaCounter(t, false) }
