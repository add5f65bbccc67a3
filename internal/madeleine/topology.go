package madeleine

import (
	"fmt"
	"sort"
	"strings"
)

// Topology resolves the cost profile governing every directed node pair of a
// cluster. It is the seam that lets the same protocol stack run over
// heterogeneous interconnects — the paper's portability claim — without the
// protocols knowing: a uniform cluster (a bare *Profile), hierarchical
// clusters with a fast internal network and a slow backbone, or an arbitrary
// per-link matrix all present the same interface to the layers above.
// Reports name a topology by its String method where it has one.
type Topology interface {
	// Link returns the profile for messages travelling from src to dst.
	// src == dst is loopback, which is still charged (PM2 loopback crosses
	// the full RPC machinery). Implementations must return a non-nil
	// profile for every pair of valid nodes.
	Link(src, dst int) *Profile
}

// Link implements Topology: a profile is the homogeneous topology, every
// pair uses it — exactly the model the paper's Tables 3 and 4 are
// calibrated against.
func (p *Profile) Link(src, dst int) *Profile { return p }

// Hierarchical models a multi-cluster machine: nodes within one cluster talk
// over a fast Intra profile (e.g. SISCI/SCI), nodes in different clusters
// over a slow Inter profile (e.g. TCP over the campus Ethernet). This is the
// configuration the paper's portability story points at but never measures:
// the same protocols run unchanged, only the link costs diverge.
type Hierarchical struct {
	cluster      []int // node -> cluster id
	Intra, Inter *Profile
}

// NewHierarchical builds a hierarchical topology from an explicit node ->
// cluster assignment. Use EvenClusters for the common equal-block layout.
func NewHierarchical(cluster []int, intra, inter *Profile) *Hierarchical {
	if intra == nil || inter == nil {
		panic("madeleine: hierarchical topology needs intra and inter profiles")
	}
	if len(cluster) == 0 {
		panic("madeleine: hierarchical topology needs a cluster assignment")
	}
	return &Hierarchical{
		cluster: append([]int(nil), cluster...),
		Intra:   intra,
		Inter:   inter,
	}
}

// EvenClusters assigns nodes to clusters in contiguous blocks as equal as
// possible: EvenClusters(5, 2) = [0 0 0 1 1].
func EvenClusters(nodes, clusters int) []int {
	if nodes < 1 || clusters < 1 {
		panic(fmt.Sprintf("madeleine: invalid cluster layout %d nodes / %d clusters", nodes, clusters))
	}
	if clusters > nodes {
		clusters = nodes
	}
	out := make([]int, nodes)
	base := nodes / clusters
	extra := nodes % clusters
	node := 0
	for c := 0; c < clusters; c++ {
		size := base
		if c < extra {
			size++
		}
		for i := 0; i < size; i++ {
			out[node] = c
			node++
		}
	}
	return out
}

// String names the topology in reports.
func (h *Hierarchical) String() string {
	return fmt.Sprintf("hier[%s|%s]", h.Intra.Name, h.Inter.Name)
}

// Nodes returns the node count the topology was built for.
func (h *Hierarchical) Nodes() int { return len(h.cluster) }

// ClusterOf returns the cluster node belongs to.
func (h *Hierarchical) ClusterOf(node int) int {
	if node < 0 || node >= len(h.cluster) {
		panic(fmt.Sprintf("madeleine: node %d outside hierarchical topology of %d nodes", node, len(h.cluster)))
	}
	return h.cluster[node]
}

// Link implements Topology: intra-cluster pairs use the fast profile,
// inter-cluster pairs the slow one. Loopback is intra by definition.
func (h *Hierarchical) Link(src, dst int) *Profile {
	if h.ClusterOf(src) == h.ClusterOf(dst) {
		return h.Intra
	}
	return h.Inter
}

// LinkMatrix is the fully general topology: an arbitrary profile per
// directed pair, with a default for pairs not explicitly set. It expresses
// asymmetric scenarios (an upload-constrained node, a single degraded cable)
// that neither a single profile nor Hierarchical can.
type LinkMatrix struct {
	def   *Profile
	links map[[2]int]*Profile
}

// NewLinkMatrix builds a matrix topology whose unset pairs use def.
func NewLinkMatrix(def *Profile) *LinkMatrix {
	if def == nil {
		panic("madeleine: link matrix needs a default profile")
	}
	return &LinkMatrix{def: def, links: make(map[[2]int]*Profile)}
}

// SetLink assigns the profile for the directed link src -> dst.
func (m *LinkMatrix) SetLink(src, dst int, p *Profile) *LinkMatrix {
	if p == nil {
		panic("madeleine: nil profile on link")
	}
	m.links[[2]int{src, dst}] = p
	return m
}

// SetDuplex assigns the profile for both directions between a and b.
func (m *LinkMatrix) SetDuplex(a, b int, p *Profile) *LinkMatrix {
	return m.SetLink(a, b, p).SetLink(b, a, p)
}

// String names the topology in reports.
func (m *LinkMatrix) String() string {
	return fmt.Sprintf("matrix[%s+%d]", m.def.Name, len(m.links))
}

// Link implements Topology.
func (m *LinkMatrix) Link(src, dst int) *Profile {
	if p, ok := m.links[[2]int{src, dst}]; ok {
		return p
	}
	return m.def
}

// profileAliases maps user-facing shorthand to canonical profile names, so
// command-line flags accept "TCP/Ethernet" for the paper's "TCP/Fast
// Ethernet" row and similar sloppy spellings.
var profileAliases = map[string]*Profile{
	"tcp/ethernet":     TCPFastEthernet,
	"tcp/fastethernet": TCPFastEthernet,
	"ethernet":         TCPFastEthernet,
	"bip":              BIPMyrinet,
	"myrinet":          BIPMyrinet,
	"sci":              SISCISCI,
	"sisci":            SISCISCI,
}

// ResolveProfile finds a profile by exact name, case-insensitive name, or
// one of a few common aliases ("TCP/Ethernet", "SCI", ...). It returns nil
// if nothing matches; ProfileNames lists what would.
func ResolveProfile(name string) *Profile {
	if p := ByName(name); p != nil {
		return p
	}
	lower := strings.ToLower(strings.TrimSpace(name))
	for _, p := range Profiles {
		if strings.ToLower(p.Name) == lower {
			return p
		}
	}
	return profileAliases[lower]
}

// ProfileNames lists the canonical profile names, sorted.
func ProfileNames() []string {
	out := make([]string, 0, len(Profiles))
	for _, p := range Profiles {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}
