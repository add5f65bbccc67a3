package madeleine

import (
	"fmt"
	"sort"

	"dsmpm2/internal/sim"
)

// Network checkpoint/restore. A safe point for the network means no traffic
// in flight — the engine's queue is drained — so the serializable state is
// the link occupancy clocks, the traffic counters and the fault layer's view.
// Messages held on partitioned links are the one exception: they ARE
// in-flight traffic parked inside the network, and their payloads are live
// Go values (closures over channels) that cannot be serialized, so a
// checkpoint while a partition holds traffic is rejected.

// LinkClock is one directed link's occupancy clock.
type LinkClock struct {
	From int      `json:"from"`
	To   int      `json:"to"`
	Free sim.Time `json:"free"`
}

// LinkFaultState is one directed link's fault configuration.
type LinkFaultState struct {
	From        int     `json:"from"`
	To          int     `json:"to"`
	Partitioned bool    `json:"partitioned,omitempty"`
	DropRate    float64 `json:"drop_rate,omitempty"`
	DupRate     float64 `json:"dup_rate,omitempty"`
}

// FaultLayerState is the fault layer's serializable state.
type FaultLayerState struct {
	Dead     []bool           `json:"dead"`
	Links    []LinkFaultState `json:"links,omitempty"`
	Stats    FaultStats       `json:"stats"`
	RNGDraws uint64           `json:"rng_draws"`
}

// NetState is the network's complete serializable state.
type NetState struct {
	LinkFree  []LinkClock      `json:"link_free,omitempty"`
	LinkStats LinkStats        `json:"link_stats"`
	Msgs      int              `json:"msgs"`
	Bytes     int64            `json:"bytes"`
	Envelopes int              `json:"envelopes"`
	Faults    *FaultLayerState `json:"faults,omitempty"`
}

// CaptureState serializes the network at a safe point, or explains why the
// moment is not one. It never mutates the network.
func (nw *Network) CaptureState() (*NetState, error) {
	s := &NetState{
		LinkStats: nw.linkStats,
		Msgs:      nw.msgs,
		Bytes:     nw.bytes,
		Envelopes: nw.envelopes,
	}
	keys := make([]linkKey, 0, len(nw.linkFree))
	for k := range nw.linkFree {
		keys = append(keys, k)
	}
	sortLinkKeys(keys)
	for _, k := range keys {
		s.LinkFree = append(s.LinkFree, LinkClock{From: k.from, To: k.to, Free: nw.linkFree[k]})
	}
	fs := nw.faults
	if fs == nil {
		return s, nil
	}
	fl := &FaultLayerState{
		Dead:     append([]bool(nil), fs.dead...),
		Stats:    fs.stats,
		RNGDraws: fs.rng.Draws(),
	}
	lkeys := make([]linkKey, 0, len(fs.links))
	for k := range fs.links {
		lkeys = append(lkeys, k)
	}
	sortLinkKeys(lkeys)
	for _, k := range lkeys {
		lf := fs.links[k]
		if len(lf.held) > 0 {
			return nil, fmt.Errorf("madeleine: capture with %d message(s) held on partitioned link %d->%d (heal before checkpointing)", len(lf.held), k.from, k.to)
		}
		if !lf.partitioned && lf.dropRate == 0 && lf.dupRate == 0 {
			continue // healed, reliable link: nothing to carry
		}
		fl.Links = append(fl.Links, LinkFaultState{
			From: k.from, To: k.to, Partitioned: lf.partitioned,
			DropRate: lf.dropRate, DupRate: lf.dupRate,
		})
	}
	s.Faults = fl
	return s, nil
}

func sortLinkKeys(keys []linkKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
}

// RestoreState installs a captured network state into this network, which
// must have the same node count and — when the capture had faults enabled —
// must already have EnableFaults called with the original seed, so the loss
// PRNG stream can be fast-forwarded rather than recreated (the seed does not
// serialize here; the layer above records it).
func (nw *Network) RestoreState(s *NetState) error {
	nw.linkFree = make(map[linkKey]sim.Time, len(s.LinkFree))
	for _, lc := range s.LinkFree {
		if lc.From < 0 || lc.From >= nw.n || lc.To < 0 || lc.To >= nw.n {
			return fmt.Errorf("madeleine: restore of link %d->%d into %d-node network", lc.From, lc.To, nw.n)
		}
		nw.linkFree[linkKey{lc.From, lc.To}] = lc.Free
	}
	nw.linkStats = s.LinkStats
	nw.msgs = s.Msgs
	nw.bytes = s.Bytes
	nw.envelopes = s.Envelopes
	if s.Faults == nil {
		return nil
	}
	fs := nw.faults
	if fs == nil {
		return fmt.Errorf("madeleine: restore of fault state into a network without faults enabled")
	}
	if len(s.Faults.Dead) != len(fs.dead) {
		return fmt.Errorf("madeleine: restore fault state for %d nodes into %d-node network", len(s.Faults.Dead), len(fs.dead))
	}
	copy(fs.dead, s.Faults.Dead)
	fs.stats = s.Faults.Stats
	fs.links = make(map[linkKey]*linkFault, len(s.Faults.Links))
	for _, lf := range s.Faults.Links {
		fs.links[linkKey{lf.From, lf.To}] = &linkFault{
			partitioned: lf.Partitioned, dropRate: lf.DropRate, dupRate: lf.DupRate,
		}
	}
	if err := fs.rng.BurnTo(s.Faults.RNGDraws); err != nil {
		return fmt.Errorf("madeleine: loss PRNG: %w", err)
	}
	return nil
}
