package madeleine

import (
	"fmt"
	"testing"

	"dsmpm2/internal/sim"
)

// TestEnvelopesByLink: departures are classed by the profile of the link they
// cross and reported by profile name. Every send flavour counts one envelope
// (a gather counts one however many parts it carries), a driver send
// (from < 0) is charged as destination-local, and two profiles that share a
// name — a matrix topology with a degraded copy of its default link — report
// as one class.
func TestEnvelopesByLink(t *testing.T) {
	slowCopy := *BIPMyrinet // same name, different profile
	slowCopy.CtrlMsg *= 4

	type send struct {
		from, to int
		kind     string
	}
	cases := []struct {
		name  string
		topo  Topology
		nodes int
		sends []send
		want  map[string]int
	}{
		{
			name:  "hierarchical: intra vs backbone",
			topo:  NewHierarchical(EvenClusters(4, 2), SISCISCI, TCPFastEthernet),
			nodes: 4,
			sends: []send{
				{0, 1, "ctrl"}, {1, 0, "bulk"}, {2, 3, "direct"}, {3, 3, "ctrl"}, // intra (incl. loopback)
				{0, 2, "ctrl"}, {3, 1, "gather"}, {1, 2, "direct"}, // backbone
				{-1, 2, "ctrl"}, // driver: destination-local, so intra
			},
			want: map[string]int{SISCISCI.Name: 5, TCPFastEthernet.Name: 3},
		},
		{
			name:  "uniform: one class",
			topo:  BIPMyrinet,
			nodes: 2,
			sends: []send{{0, 1, "ctrl"}, {1, 0, "gather"}, {0, 0, "bulk"}},
			want:  map[string]int{BIPMyrinet.Name: 3},
		},
		{
			name:  "matrix: two profiles sharing a name sum",
			topo:  NewLinkMatrix(BIPMyrinet).SetLink(0, 1, &slowCopy).SetDuplex(1, 2, TCPMyrinet),
			nodes: 3,
			sends: []send{{0, 1, "ctrl"}, {0, 1, "bulk"}, {1, 0, "ctrl"}, {1, 2, "direct"}, {2, 1, "ctrl"}},
			want:  map[string]int{BIPMyrinet.Name: 3, TCPMyrinet.Name: 2},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(1)
			nw := NewNetwork(eng, tc.topo, tc.nodes)
			ch := nw.ChannelID("c")
			sink := new(sim.Chan)
			for _, s := range tc.sends {
				switch s.kind {
				case "ctrl":
					nw.SendCtrlID(s.from, s.to, ch, nil)
				case "bulk":
					nw.SendBulkID(s.from, s.to, ch, 4096, nil)
				case "direct":
					nw.SendDirect(s.from, s.to, sink, 64, nil, sim.Microsecond)
				case "gather":
					nw.SendGather(s.from, s.to, []GatherPart{{Chan: ch, Size: 64}, {Chan: ch, Size: 64}}, sim.Microsecond)
				}
			}
			if got := nw.EnvelopesByLink(); fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("EnvelopesByLink = %v, want %v", got, tc.want)
			}
			if nw.Envelopes() != len(tc.sends) {
				t.Fatalf("Envelopes = %d, want %d", nw.Envelopes(), len(tc.sends))
			}
		})
	}
}
