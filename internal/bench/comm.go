package bench

// The "comm" experiment: message/byte/envelope accounting of the DSM
// communication module — the release outbox coalescing a destination's
// invalidations and diffs into one envelope, and barrier write notices
// replacing invalidation rounds — across the barrier- and diff-heavy
// applications at cluster scale. Unlike the kernel experiment (wall-clock),
// everything here is exact and deterministic: the same seed produces the
// same counts on every machine, so BENCH_comm.json is a pinned artifact, not
// a measurement subject to host noise.

import (
	"fmt"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/lu"
	"dsmpm2/internal/apps/matmul"
)

// CommLink is one link class's fault-timing summary, surfaced next to the
// counters so the JSON output carries the TimingLog.ByLink view too.
type CommLink struct {
	Link        string  `json:"link"`
	Count       int     `json:"count"`
	MeanTotalUS float64 `json:"mean_total_us"`
}

// CommResult is one (app, nodes) run of the comm experiment.
type CommResult struct {
	App   string `json:"app"`
	Nodes int    `json:"nodes"`
	// Clusters identifies the scale rows (hierarchical topology); zero for
	// the classic uniform-topology rows.
	Clusters int `json:"clusters,omitempty"`
	// VirtualMS is the workload's simulated run time.
	VirtualMS float64 `json:"virtual_ms"`

	// Wire accounting from the network layer. Envelopes counts departures:
	// a multi-part outbox envelope counts once, so Messages/Envelopes is the
	// aggregation factor the outbox achieved. SyncEnvelopes isolates the
	// barrier-phase traffic — every envelope except the page-fetch pairs
	// (requests and page transfers, which no coalescing can remove): the
	// invalidations, acknowledgements, diffs and synchronization messages
	// that release/barrier processing puts on the wire.
	Messages      int   `json:"messages"`
	Bytes         int64 `json:"bytes"`
	Envelopes     int   `json:"envelopes"`
	SyncEnvelopes int64 `json:"sync_envelopes"`

	// DSM communication-module counters (core.Stats).
	Sends         int64 `json:"sends"`
	Requests      int64 `json:"requests"`
	PageSends     int64 `json:"page_sends"`
	Invalidations int64 `json:"invalidations"`
	InvAcks       int64 `json:"inv_acks"`
	DiffsSent     int64 `json:"diffs_sent"`
	DiffBytes     int64 `json:"diff_bytes"`
	Notices       int64 `json:"notices"`
	DSMEnvelopes  int64 `json:"dsm_envelopes"`

	// Backbone accounting for the scale rows: envelopes that crossed the
	// inter-cluster link class, and the per-barrier-generation share of them
	// after subtracting the page-fetch pairs (request + page send per remote
	// fault on the backbone) that no barrier scheme can remove. The flat
	// barrier grows this O(N): every non-home arrival crosses the backbone.
	BackboneEnvelopes  int     `json:"backbone_envelopes,omitempty"`
	BarrierGens        int64   `json:"barrier_gens,omitempty"`
	BackbonePerBarrier float64 `json:"backbone_per_barrier,omitempty"`

	// ByLink summarizes the recorded fault timings per link class.
	ByLink []CommLink `json:"by_link"`
}

// commRun is one application scenario of the suite.
type commRun struct {
	app   string
	nodes int
	run   func() (*dsmpm2.System, dsmpm2.Time)
}

// measure samples the counters after the app's final checksum read-back
// pass: read-only page fetches, which cancel out of SyncEnvelopes entirely
// (read-back traffic is exactly request/page-send pairs, which
// SyncEnvelopes subtracts). VirtualMS is the workload's own elapsed time,
// without the read-back.
func (c commRun) measure() CommResult {
	sys, elapsed := c.run()
	st := sys.Stats()
	msgs, bytes := sys.Runtime().Network().Stats()
	res := CommResult{
		App:           c.app,
		Nodes:         c.nodes,
		VirtualMS:     float64(elapsed) / 1e6,
		Messages:      msgs,
		Bytes:         bytes,
		Envelopes:     sys.Runtime().Network().Envelopes(),
		SyncEnvelopes: int64(sys.Runtime().Network().Envelopes()) - st.Requests - st.PageSends,

		Sends:         st.Sends,
		Requests:      st.Requests,
		PageSends:     st.PageSends,
		Invalidations: st.Invalidations,
		InvAcks:       st.InvAcks,
		DiffsSent:     st.DiffsSent,
		DiffBytes:     st.DiffBytes,
		Notices:       st.Notices,
		DSMEnvelopes:  st.Envelopes,
	}
	for _, s := range sys.Timings().ByLink() {
		if s.Link == "" {
			continue
		}
		res.ByLink = append(res.ByLink, CommLink{
			Link: s.Link, Count: s.Count, MeanTotalUS: s.MeanTotal.Microseconds(),
		})
	}
	return res
}

// commRuns lists the suite's scenarios: the three barrier-phased
// applications at 16 and 64 nodes. Jacobi under hbrc_mw is the headline
// (barrier phases dominated by invalidation traffic the notices absorb);
// lu's broadcast pivots stress diff coalescing; matmul's read replication
// is the near-neutral control.
func commRuns() []commRun {
	mk := func(app string, nodes int, run func() (*dsmpm2.System, dsmpm2.Time)) commRun {
		return commRun{app: app, nodes: nodes, run: run}
	}
	jac := func(app string, proto string, nodes, n, iters int) commRun {
		return mk(app, nodes, func() (*dsmpm2.System, dsmpm2.Time) {
			res, err := jacobi.Run(jacobi.Config{
				N: n, Iterations: iters, Nodes: nodes,
				Network: dsmpm2.BIPMyrinet, Protocol: proto, Seed: 7,
			})
			if err != nil {
				panic(fmt.Sprintf("comm %s/%d: %v", app, nodes, err))
			}
			return res.System, res.Elapsed
		})
	}
	mat := func(nodes, n int) commRun {
		return mk("matmul", nodes, func() (*dsmpm2.System, dsmpm2.Time) {
			res, err := matmul.Run(matmul.Config{
				N: n, Nodes: nodes,
				Network: dsmpm2.BIPMyrinet, Protocol: "li_hudak", Seed: 3,
			})
			if err != nil {
				panic(fmt.Sprintf("comm matmul/%d: %v", nodes, err))
			}
			return res.System, res.Elapsed
		})
	}
	luf := func(nodes, n int) commRun {
		return mk("lu", nodes, func() (*dsmpm2.System, dsmpm2.Time) {
			res, err := lu.Run(lu.Config{
				N: n, Nodes: nodes,
				Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: 5,
			})
			if err != nil {
				panic(fmt.Sprintf("comm lu/%d: %v", nodes, err))
			}
			return res.System, res.Elapsed
		})
	}
	return []commRun{
		// Iteration counts run well past the grid diagonal so the heat
		// front has crossed every block boundary and each barrier phase
		// carries real invalidation traffic, not just warm-up fetches.
		jac("jacobi", "hbrc_mw", 16, 32, 48),
		jac("jacobi", "hbrc_mw", 64, 64, 96),
		// erc_sw cannot use write notices (ownership migrates), so its
		// barrier releases ship eager invalidations through the outbox's
		// vector-RPC path — the row that keeps the batched invalidation
		// machinery itself on the wire (jacobi's stencil gives each page
		// one holder per neighbour, so these envelopes carry one op each;
		// the multi-op coalescing arithmetic is pinned directly by
		// core.TestBatchFlushCoalescesEnvelopes).
		jac("jacobi-erc", "erc_sw", 16, 32, 48),
		mat(16, 24),
		mat(64, 32),
		luf(16, 24),
		luf(64, 32),
	}
}

// CommSuite runs every scenario and returns the results in suite order.
func CommSuite() []CommResult {
	var out []CommResult
	for _, c := range commRuns() {
		out = append(out, c.measure())
	}
	return out
}

// CommScaleClusters is the cluster count of the scale rows' hierarchical
// topology.
const CommScaleClusters = 8

// commScale runs one scale row: jacobi on a hierarchical topology (fast
// intra-cluster links, slow backbone) at the given node count.
func commScale(nodes, iters int) CommResult {
	clusters := CommScaleClusters
	inter := dsmpm2.TCPFastEthernet
	res, err := jacobi.Run(jacobi.Config{
		N: nodes, Iterations: iters, Nodes: nodes,
		Topology: dsmpm2.HierarchicalTopology(
			dsmpm2.EvenClusters(nodes, clusters), dsmpm2.BIPMyrinet, inter),
		Protocol: "hbrc_mw", Seed: 7,
	})
	if err != nil {
		panic(fmt.Sprintf("comm scale %d: %v", nodes, err))
	}
	if want := jacobi.SolveSerial(nodes, iters); res.Checksum != want {
		panic(fmt.Sprintf("comm scale %d: checksum %v, serial %v", nodes, res.Checksum, want))
	}
	sys := res.System
	st := sys.Stats()
	msgs, bytes := sys.Runtime().Network().Stats()
	out := CommResult{
		App:       "jacobi-hier",
		Nodes:     nodes,
		Clusters:  clusters,
		VirtualMS: float64(res.Elapsed) / 1e6,
		Messages:  msgs,
		Bytes:     bytes,
		Envelopes: sys.Runtime().Network().Envelopes(),
		SyncEnvelopes: int64(sys.Runtime().Network().Envelopes()) -
			st.Requests - st.PageSends,

		Sends:         st.Sends,
		Requests:      st.Requests,
		PageSends:     st.PageSends,
		Invalidations: st.Invalidations,
		InvAcks:       st.InvAcks,
		DiffsSent:     st.DiffsSent,
		DiffBytes:     st.DiffBytes,
		Notices:       st.Notices,
		DSMEnvelopes:  st.Envelopes,

		BackboneEnvelopes: sys.Runtime().Network().EnvelopesByLink()[inter.Name],
		BarrierGens:       st.Barriers / int64(nodes),
	}
	var interFaults int
	for _, s := range sys.Timings().ByLink() {
		if s.Link == inter.Name {
			interFaults = s.Count
		}
		if s.Link == "" {
			continue
		}
		out.ByLink = append(out.ByLink, CommLink{
			Link: s.Link, Count: s.Count, MeanTotalUS: s.MeanTotal.Microseconds(),
		})
	}
	if out.BarrierGens > 0 {
		out.BackbonePerBarrier = float64(out.BackboneEnvelopes-2*interFaults) /
			float64(out.BarrierGens)
	}
	return out
}

// CommScaleSuite is the sync-envelope growth matrix: 64- and 512-node jacobi
// on the 8-cluster hierarchical topology. Iteration counts are small —
// per-barrier backbone cost is steady-state after the first generation, and
// these rows exist for the wire accounting, not the heat flow.
func CommScaleSuite() []CommResult {
	return []CommResult{commScale(64, 4), commScale(512, 4)}
}
