package madeleine

import (
	"strings"
	"testing"

	"dsmpm2/internal/sim"
)

// TestUniformLinkEverywhere: a profile is the uniform topology, resolving
// every pair, loopback included, to itself.
func TestUniformLinkEverywhere(t *testing.T) {
	var u Topology = BIPMyrinet
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if u.Link(src, dst) != BIPMyrinet {
				t.Fatalf("uniform link (%d,%d) != profile", src, dst)
			}
		}
	}
}

func TestEvenClusters(t *testing.T) {
	cases := []struct {
		nodes, clusters int
		want            []int
	}{
		{4, 2, []int{0, 0, 1, 1}},
		{5, 2, []int{0, 0, 0, 1, 1}},
		{6, 3, []int{0, 0, 1, 1, 2, 2}},
		{3, 1, []int{0, 0, 0}},
		{2, 5, []int{0, 1}}, // clusters clamp to nodes
	}
	for _, c := range cases {
		got := EvenClusters(c.nodes, c.clusters)
		if len(got) != len(c.want) {
			t.Fatalf("EvenClusters(%d,%d) = %v", c.nodes, c.clusters, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("EvenClusters(%d,%d) = %v, want %v", c.nodes, c.clusters, got, c.want)
				break
			}
		}
	}
}

func TestHierarchicalLinks(t *testing.T) {
	h := NewHierarchical(EvenClusters(4, 2), SISCISCI, TCPFastEthernet)
	if h.Nodes() != 4 || h.Clusters() != 2 {
		t.Fatalf("layout: %d nodes, %d clusters", h.Nodes(), h.Clusters())
	}
	if h.Link(0, 1) != SISCISCI || h.Link(2, 3) != SISCISCI {
		t.Error("intra-cluster pair did not resolve to the intra profile")
	}
	if h.Link(0, 0) != SISCISCI {
		t.Error("loopback must be intra")
	}
	if h.Link(1, 2) != TCPFastEthernet || h.Link(3, 0) != TCPFastEthernet {
		t.Error("inter-cluster pair did not resolve to the inter profile")
	}
	if !strings.Contains(h.String(), SISCISCI.Name) || !strings.Contains(h.String(), TCPFastEthernet.Name) {
		t.Errorf("name %q does not identify the profiles", h)
	}
}

func TestHierarchicalOutOfRangePanics(t *testing.T) {
	h := NewHierarchical(EvenClusters(2, 2), SISCISCI, TCPFastEthernet)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range node did not panic")
		}
	}()
	h.Link(0, 2)
}

func TestLinkMatrixDefaultAndOverrides(t *testing.T) {
	m := NewLinkMatrix(BIPMyrinet).
		SetLink(0, 1, TCPFastEthernet).
		SetDuplex(1, 2, SISCISCI)
	if m.Link(0, 1) != TCPFastEthernet {
		t.Error("directed override ignored")
	}
	if m.Link(1, 0) != BIPMyrinet {
		t.Error("reverse of a directed override must use the default (asymmetry)")
	}
	if m.Link(1, 2) != SISCISCI || m.Link(2, 1) != SISCISCI {
		t.Error("duplex override ignored")
	}
	if m.Link(2, 0) != BIPMyrinet {
		t.Error("unset pair must use the default")
	}
}

func TestNetworkTopologySizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched topology size did not panic")
		}
	}()
	NewNetwork(sim.NewEngine(1), NewHierarchical(EvenClusters(4, 2), SISCISCI, TCPFastEthernet), 3)
}

func TestResolveProfile(t *testing.T) {
	cases := map[string]*Profile{
		"BIP/Myrinet":       BIPMyrinet,
		"bip/myrinet":       BIPMyrinet,
		"TCP/Ethernet":      TCPFastEthernet,
		"tcp/fast ethernet": TCPFastEthernet,
		"SCI":               SISCISCI,
		"sisci":             SISCISCI,
		"carrier pigeon":    nil,
	}
	for name, want := range cases {
		if got := ResolveProfile(name); got != want {
			t.Errorf("ResolveProfile(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestHierarchicalNetworkLatencies checks that messages are charged the cost
// of the link they actually cross: an intra-cluster control message arrives
// at the intra profile's latency, an inter-cluster one at the inter's.
func TestHierarchicalNetworkLatencies(t *testing.T) {
	eng := sim.NewEngine(1)
	topo := NewHierarchical(EvenClusters(4, 2), SISCISCI, TCPFastEthernet)
	nw := NewNetwork(eng, topo, 4)
	var intraAt, interAt sim.Time
	eng.Go("recvIntra", func(p *sim.Proc) {
		nw.Recv(p, 1, "ch")
		intraAt = p.Now()
	})
	eng.Go("recvInter", func(p *sim.Proc) {
		nw.Recv(p, 2, "ch")
		interAt = p.Now()
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendCtrl(0, 1, "ch", nil) // same cluster
		nw.SendCtrl(0, 2, "ch", nil) // crosses the backbone
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if intraAt != sim.Time(SISCISCI.CtrlMsg) {
		t.Errorf("intra-cluster ctrl arrived at %v, want %v", intraAt, SISCISCI.CtrlMsg)
	}
	if interAt != sim.Time(TCPFastEthernet.CtrlMsg) {
		t.Errorf("inter-cluster ctrl arrived at %v, want %v", interAt, TCPFastEthernet.CtrlMsg)
	}
}

// TestLinkContentionSerializesSharedLink is the contention acceptance case:
// two concurrent 4 KiB transfers on the same directed link queue FIFO, so
// the second arrives one byte-time later and the wait shows up in LinkStats.
func TestLinkContentionSerializesSharedLink(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	nw.SetLinkContention(true)
	var arrivals []sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			nw.Recv(p, 1, "ch")
			arrivals = append(arrivals, p.Now())
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendBulk(0, 1, "ch", 4096, nil)
		nw.SendBulk(0, 1, "ch", 4096, nil) // same link: queues behind the first
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	gap := arrivals[1].Sub(arrivals[0])
	tx := sim.Duration(4096 * BIPMyrinet.PerByte)
	if gap < tx-sim.Microsecond || gap > tx+sim.Microsecond {
		t.Fatalf("arrival gap = %v, want one 4KiB byte time (~%v)", gap, tx)
	}
	ls := nw.LinkStats()
	if ls.Waits != 1 || ls.WaitTime <= 0 {
		t.Fatalf("link stats = %+v, want 1 wait with positive queueing delay", ls)
	}
}

// TestLinkContentionDisjointLinksOverlap: transfers on different links do not
// serialize, even from the same sender.
func TestLinkContentionDisjointLinksOverlap(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 3)
	nw.SetLinkContention(true)
	var arrivals []sim.Time
	recv := func(node int) {
		eng.Go("recv", func(p *sim.Proc) {
			nw.Recv(p, node, "ch")
			arrivals = append(arrivals, p.Now())
		})
	}
	recv(1)
	recv(2)
	eng.Go("send", func(p *sim.Proc) {
		nw.SendBulk(0, 1, "ch", 4096, nil)
		nw.SendBulk(0, 2, "ch", 4096, nil) // different link: no queueing
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals[0] != arrivals[1] {
		t.Fatalf("disjoint links must not serialize: %v", arrivals)
	}
	if ls := nw.LinkStats(); ls.Waits != 0 {
		t.Fatalf("no queueing expected, stats = %+v", ls)
	}
}

// TestLinkContentionOppositeDirectionsOverlap: the model is per directed
// link, so full-duplex traffic does not self-interfere.
func TestLinkContentionOppositeDirectionsOverlap(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	nw.SetLinkContention(true)
	var arrivals []sim.Time
	eng.Go("recv0", func(p *sim.Proc) {
		nw.Recv(p, 0, "ch")
		arrivals = append(arrivals, p.Now())
	})
	eng.Go("recv1", func(p *sim.Proc) {
		nw.Recv(p, 1, "ch")
		arrivals = append(arrivals, p.Now())
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendBulk(0, 1, "ch", 4096, nil)
		nw.SendBulk(1, 0, "ch", 4096, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals[0] != arrivals[1] {
		t.Fatalf("opposite directions must not serialize: %v", arrivals)
	}
}

// TestLinkContentionOffUnchanged: with the model off, same-link transfers
// overlap exactly as the calibrated single-message model prescribes.
func TestLinkContentionOffUnchanged(t *testing.T) {
	eng := sim.NewEngine(1)
	nw := NewNetwork(eng, BIPMyrinet, 2)
	if nw.LinkContention() {
		t.Fatal("link contention must default off")
	}
	var arrivals []sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			nw.Recv(p, 1, "ch")
			arrivals = append(arrivals, p.Now())
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendBulk(0, 1, "ch", 4096, nil)
		nw.SendBulk(0, 1, "ch", 4096, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if arrivals[0] != arrivals[1] {
		t.Fatalf("without the link model the transfers should overlap: %v", arrivals)
	}
}

// TestHierContendedLinkUsesLinkRate: queueing time on a contended link is
// charged at that link's byte rate, not some global profile's.
func TestHierContendedLinkUsesLinkRate(t *testing.T) {
	eng := sim.NewEngine(1)
	topo := NewHierarchical(EvenClusters(4, 2), SISCISCI, TCPFastEthernet)
	nw := NewNetwork(eng, topo, 4)
	nw.SetLinkContention(true)
	var arrivals []sim.Time
	eng.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			nw.Recv(p, 2, "ch")
			arrivals = append(arrivals, p.Now())
		}
	})
	eng.Go("send", func(p *sim.Proc) {
		nw.SendBulk(0, 2, "ch", 4096, nil) // inter-cluster link
		nw.SendBulk(0, 2, "ch", 4096, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	gap := arrivals[1].Sub(arrivals[0])
	tx := sim.Duration(4096 * TCPFastEthernet.PerByte)
	if gap < tx-sim.Microsecond || gap > tx+sim.Microsecond {
		t.Fatalf("gap = %v, want the inter profile's 4KiB byte time (~%v)", gap, tx)
	}
}
