package protocols

import (
	"fmt"
	"strings"
	"testing"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
)

// TestSwitchProtocolMidRun exercises Section 2.3's protocol switch: an area
// used under li_hudak is, at a quiescent point, re-associated with hbrc_mw
// and keeps working — and its contents survive the switch.
func TestSwitchProtocolMidRun(t *testing.T) {
	rt, d, ids := harness(3, madeleine.BIPMyrinet, 5)
	d.SetDefaultProtocol(ids.LiHudak)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	lock := d.NewLock(0)
	bar := d.NewBarrier(3)

	results := make([]uint64, 3)
	for n := 0; n < 3; n++ {
		node := n
		rt.CreateThread(node, fmt.Sprintf("p%d", node), func(th *pm2.Thread) {
			// Phase 1 under li_hudak.
			d.Acquire(th, lock)
			d.WriteUint64(th, base, d.ReadUint64(th, base)+1)
			d.Release(th, lock)
			d.Barrier(th, bar)
			// Quiescent point: node 0 switches the protocol.
			if node == 0 {
				if err := d.SwitchProtocol(th, base, 8, ids.HbrcMW); err != nil {
					t.Errorf("switch failed: %v", err)
				}
			}
			d.Barrier(th, bar)
			// Phase 2 under hbrc_mw.
			d.Acquire(th, lock)
			d.WriteUint64(th, base, d.ReadUint64(th, base)+1)
			d.Release(th, lock)
			d.Barrier(th, bar)
			d.Acquire(th, lock)
			results[node] = d.ReadUint64(th, base)
			d.Release(th, lock)
		})
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for n, v := range results {
		if v != 6 {
			t.Errorf("node %d read %d after both phases, want 6", n, v)
		}
	}
	if _, proto, _ := d.PageInfo(pg); proto != ids.HbrcMW {
		t.Errorf("page still recorded under protocol %d", proto)
	}
}

func TestSwitchProtocolValidation(t *testing.T) {
	rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
	d.SetDefaultProtocol(ids.LiHudak)
	base := d.MustMalloc(0, 8, nil)
	rt.CreateThread(0, "switcher", func(th *pm2.Thread) {
		if err := d.SwitchProtocol(th, 0x100, 8, ids.HbrcMW); err == nil {
			t.Error("switch of unallocated area succeeded")
		}
		if err := d.SwitchProtocol(th, base, 8, ids.HbrcMW); err != nil {
			t.Errorf("valid switch failed: %v", err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchResetsCopiesAndState(t *testing.T) {
	rt, d, ids := harness(3, madeleine.BIPMyrinet, 2)
	d.SetDefaultProtocol(ids.LiHudak)
	base := d.MustMalloc(0, 8, nil)
	pg := d.Space(0).PageOf(base)
	// Scatter copies and move ownership away from home.
	rt.CreateThread(1, "w", func(th *pm2.Thread) { d.WriteUint64(th, base, 42) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	rt.CreateThread(2, "r", func(th *pm2.Thread) { d.ReadUint64(th, base) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	rt.CreateThread(0, "switcher", func(th *pm2.Thread) {
		if err := d.SwitchProtocol(th, base, 8, ids.HbrcMW); err != nil {
			t.Errorf("switch failed: %v", err)
		}
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Copies dropped everywhere but the home; home owns again.
	for n := 1; n < 3; n++ {
		if d.Space(n).AccessOf(pg) != memory.NoAccess {
			t.Errorf("node %d still holds a copy after the switch", n)
		}
		if d.Entry(n, pg).Owner {
			t.Errorf("node %d still claims ownership", n)
		}
	}
	if !d.Entry(0, pg).Owner {
		t.Error("home did not regain ownership")
	}
	// Contents survived: node 1 owned the page when the switch ran, so
	// its copy was repatriated to the home before the reset.
	var got uint64
	rt.CreateThread(2, "verify", func(th *pm2.Thread) { got = d.ReadUint64(th, base) })
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("page contents lost across the switch: got %d, want 42", got)
	}
}

// TestSwitchRequiresQuiescence: a pending fetch must abort the switch.
func TestSwitchRequiresQuiescence(t *testing.T) {
	rt, d, ids := harness(2, madeleine.TCPFastEthernet, 3) // slow net: wide race window
	d.SetDefaultProtocol(ids.LiHudak)
	base := d.MustMalloc(0, 8, nil)
	var switchErr error
	rt.CreateThread(1, "reader", func(th *pm2.Thread) {
		d.ReadUint64(th, base) // fetch takes ~1ms on Fast Ethernet
	})
	rt.CreateThread(0, "switcher", func(th *pm2.Thread) {
		th.Advance(500 * 1000) // 500us: mid-fetch
		switchErr = d.SwitchProtocol(th, base, 8, ids.HbrcMW)
	})
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if switchErr == nil {
		t.Fatal("switch during an in-flight fetch succeeded")
	}
}

// TestSwitchRefusesUnreleasedWrites: a twin on a node other than the home is
// a write the home has not seen, and the switch's reset would drop it. The
// switch is refused, naming the node and the page; once the write is
// released, the same switch goes through and the value survives it.
func TestSwitchRefusesUnreleasedWrites(t *testing.T) {
	for _, name := range []string{"hbrc_mw", "entry_mw"} {
		t.Run(name, func(t *testing.T) {
			rt, d, ids := harness(2, madeleine.BIPMyrinet, 1)
			proto, _ := d.Registry().Lookup(name)
			base := d.MustMalloc(0, 8, &core.Attr{Protocol: proto, Home: 0})
			pg := d.Space(0).PageOf(base)
			var refused, switched error
			var got uint64
			rt.CreateThread(1, "writer", func(th *pm2.Thread) {
				d.WriteUint64(th, base, 42)
				refused = d.SwitchProtocol(th, base, 8, ids.LiHudak)
				d.FlushRelease(th)
				switched = d.SwitchProtocol(th, base, 8, ids.LiHudak)
				got = d.ReadUint64(th, base)
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("node 1 holds unreleased writes to page %d", pg)
			if refused == nil || !strings.Contains(refused.Error(), want) {
				t.Fatalf("switch over an unreleased write: err = %v, want one containing %q", refused, want)
			}
			if switched != nil {
				t.Fatalf("switch after the release failed: %v", switched)
			}
			if got != 42 {
				t.Fatalf("node 1 read %d after the switch, want 42", got)
			}
		})
	}
}
