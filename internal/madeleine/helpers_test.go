package madeleine

import "dsmpm2/internal/sim"

// Test-only methods: what the tests read or drive that no non-test code does.

// TryRecv returns a pending message for node on channel without blocking.
func (nw *Network) TryRecv(node int, channel string) (*Message, bool) {
	return nw.TryRecvID(node, nw.ChannelID(channel))
}

// Recv blocks the calling proc until a message arrives for node on channel.
func (nw *Network) Recv(p *sim.Proc, node int, channel string) *Message {
	return nw.RecvID(p, node, nw.ChannelID(channel))
}

// LinkContention reports whether link occupancy is being modelled.
func (nw *Network) LinkContention() bool { return nw.linkModel }

// Clusters returns the number of distinct clusters.
func (h *Hierarchical) Clusters() int {
	seen := map[int]bool{}
	for _, c := range h.cluster {
		seen[c] = true
	}
	return len(seen)
}
