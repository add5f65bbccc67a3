// Command customproto demonstrates the paper's Section 2.3: building a new
// consistency protocol out of the component routines and the core toolbox,
// registering it with dsm_create_protocol, and selecting among protocols
// dynamically at run time — no recompilation involved.
//
// The protocol built here, home_push, is a simplified home-based design:
// read faults replicate from the home, write faults grant a writable copy
// home-based style (the home keeps ownership), and the lock-release action
// pushes each written page home as one whole-page diff; the home applies it
// and eagerly invalidates the remaining readers. It trades hbrc_mw's
// twin/diff machinery for whole-page shipping — simpler, heavier on the
// wire, and assembled entirely from hooks.
//
// Run with:
//
//	go run ./examples/customproto
package main

import (
	"fmt"
	"log"

	"dsmpm2"
	"dsmpm2/internal/core"
	"dsmpm2/internal/memory"
)

// newHomePush assembles the protocol from hooks and returns its id.
func newHomePush(sys *dsmpm2.System) dsmpm2.ProtoID {
	d := sys.DSM()
	h := &core.Hooks{
		ProtoName: "home_push",
		OnReadFault: func(f *core.Fault) {
			core.FetchPage(f, false)
		},
		OnWriteFault: func(f *core.Fault) {
			core.FetchPage(f, true)
			d.MarkDirty(f.Node, f.Page)
		},
		OnReadServer: func(r *core.Request) {
			core.ServeHomeCopy(r, memory.ReadOnly)
		},
		OnWriteServer: func(r *core.Request) {
			// Home-based: grant a writable copy, keep ownership.
			core.ServeHomeCopy(r, memory.ReadWrite)
		},
		OnInvalidate: func(iv *core.Invalidate) { core.DropCopy(iv) },
		OnDiffServer: func(dm *core.DiffMsg) {
			core.ApplyDiffs(dm)
			for _, df := range dm.Diffs {
				e := d.Entry(dm.Node, df.Page)
				e.Lock(dm.Thread)
				cs := e.TakeCopyset()
				cs.Remove(dm.From)
				e.Unlock(dm.Thread)
				core.InvalidateCopies(d, dm.Thread, df.Page, cs, -1)
			}
		},
	}
	h.OnLockRelease = func(s *core.SyncEvent) {
		// Ship every written page home as a whole-page diff and drop our
		// writable copy; the home then invalidates the other readers (see
		// OnDiffServer). The toolbox's dirty set sweeps in page order.
		for _, pg := range d.DirtyPages(h, s.Node, nil) {
			d.ClearDirty(s.Node, pg)
			home, _, _ := d.PageInfo(pg)
			frame := d.Space(s.Node).Frame(pg)
			if frame == nil || home == s.Node {
				continue
			}
			diff := core.NewDiff(d)
			diff.Page = pg
			diff.MergeRecorded(0, frame.Data)
			core.SendDiffsHome(d, s.Thread, home, diff, true)
			d.Space(s.Node).Drop(pg)
		}
	}
	return sys.CreateProtocol(h)
}

func main() {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 4, Network: dsmpm2.SISCISCI})
	homePush := newHomePush(sys)
	liHudak, _ := sys.Protocol("li_hudak")

	fmt.Printf("%-12s %10s %12s %12s %12s\n",
		"protocol", "counter", "page xfers", "diff bytes", "time(us)")
	for _, pid := range []dsmpm2.ProtoID{homePush, liHudak} {
		// Section 2.3's dynamic selection: the protocol is picked per
		// allocation, at run time.
		x, err := sys.Malloc(0, 8, &dsmpm2.Attr{Protocol: pid, Home: 0})
		if err != nil {
			log.Fatal(err)
		}
		lock := sys.NewLock(0)
		before := sys.Stats()
		start := sys.Now()
		for n := 0; n < sys.Nodes(); n++ {
			sys.Spawn(n, fmt.Sprintf("w%d", n), func(t *dsmpm2.Thread) {
				for i := 0; i < 3; i++ {
					t.Acquire(lock)
					t.WriteUint64(x, t.ReadUint64(x)+1)
					t.Release(lock)
				}
			})
		}
		if err := sys.Run(); err != nil {
			log.Fatal(err)
		}
		var got uint64
		sys.Spawn(0, "verify", func(t *dsmpm2.Thread) { got = t.ReadUint64(x) })
		if err := sys.Run(); err != nil {
			log.Fatal(err)
		}
		after := sys.Stats()
		fmt.Printf("%-12s %10d %12d %12d %12.0f\n",
			sys.DSM().RegistryName(pid), got,
			after.PageSends-before.PageSends,
			after.DiffBytes-before.DiffBytes,
			float64(sys.Now()-start)/1000)
		if got != 12 {
			log.Fatalf("protocol %d broke consistency: counter = %d, want 12", pid, got)
		}
	}
	fmt.Println("\nhome_push was assembled from hook routines and the core toolbox")
	fmt.Println("(Section 2.3); both protocols coexist in one application.")
}
