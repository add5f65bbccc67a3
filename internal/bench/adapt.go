package bench

// The "adapt" experiment: the online sharing-pattern profiler and dynamic
// home migration against static (deliberately misplaced) page placement.
// Every workload homes its pages on node 0 — the bad layout an application
// port inherits when it allocates everything from one master thread — and
// runs once with that placement frozen and once with the profiler's decision
// engine re-homing pages onto their dominant writers at barrier epochs.
// Like the comm experiment, every number here is virtual-time exact and
// deterministic per seed: BENCH_adapt.json is a pinned artifact.
//
// The headline rows run under entry consistency (entry_mw): an acquire
// drops every non-home-local copy, so placement directly scales the fetch
// count and a misplaced home is paid for at every barrier. The hbrc_mw row
// shows the diff-traffic side of the same story (a well-placed home receives
// its writer's modifications for free), and matmul — barrier-free, so the
// profiler never folds an epoch — is the no-op control.

import (
	"fmt"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/lu"
	"dsmpm2/internal/apps/matmul"
)

// AdaptResult is one (app, nodes, placement) run of the adapt experiment.
type AdaptResult struct {
	App      string `json:"app"`
	Protocol string `json:"protocol"`
	Nodes    int    `json:"nodes"`
	Adaptive bool   `json:"adaptive"`
	// VirtualMS is the workload's simulated run time.
	VirtualMS float64 `json:"virtual_ms"`

	// Placement accounting (core.Stats). RemoteFetches counts page
	// requests sent off-node; MisplacedFetches the subset issued by a
	// page's profiled dominant writer while homed elsewhere;
	// HomeMigrations the completed re-homings.
	Requests         int64 `json:"requests"`
	RemoteFetches    int64 `json:"remote_fetches"`
	MisplacedFetches int64 `json:"misplaced_fetches"`
	HomeMigrations   int64 `json:"home_migrations"`
	PageSends        int64 `json:"page_sends"`
	DiffsSent        int64 `json:"diffs_sent"`
	DiffBytes        int64 `json:"diff_bytes"`

	// Epochs is the profiler's per-epoch classification histogram (empty
	// on the static runs, where the profiler is off).
	Epochs []dsmpm2.EpochProfile `json:"epochs,omitempty"`

	// Fingerprint digests the run's TimingLog + stats: identical across
	// replays of the same seed (the migration-enabled golden property).
	Fingerprint string `json:"fingerprint"`
}

// adaptRun is one application scenario, runnable with and without the
// decision engine.
type adaptRun struct {
	app      string
	protocol string
	nodes    int
	run      func(adaptive bool) (*dsmpm2.System, dsmpm2.Time, error)
}

func (a adaptRun) measure(adaptive bool) AdaptResult {
	sys, elapsed, err := a.run(adaptive)
	if err != nil {
		panic(fmt.Sprintf("adapt %s/%d: %v", a.app, a.nodes, err))
	}
	st := sys.Stats()
	return AdaptResult{
		App:              a.app,
		Protocol:         a.protocol,
		Nodes:            a.nodes,
		Adaptive:         adaptive,
		VirtualMS:        float64(elapsed) / 1e6,
		Requests:         st.Requests,
		RemoteFetches:    st.RemoteFetches,
		MisplacedFetches: st.MisplacedFetches,
		HomeMigrations:   st.HomeMigrations,
		PageSends:        st.PageSends,
		DiffsSent:        st.DiffsSent,
		DiffBytes:        st.DiffBytes,
		Epochs:           sys.ProfileEpochs(),
		Fingerprint:      TraceFingerprint(sys),
	}
}

// adaptRuns lists the suite's scenarios, all starting from node-0-misplaced
// homes. Iteration counts give the decision engine (stability 2) a dozen-plus
// epochs to profit from the move.
func adaptRuns() []adaptRun {
	jac := func(proto string, nodes, n, iters int) adaptRun {
		return adaptRun{app: "jacobi", protocol: proto, nodes: nodes,
			run: func(adaptive bool) (*dsmpm2.System, dsmpm2.Time, error) {
				res, err := jacobi.Run(jacobi.Config{
					N: n, Iterations: iters, Nodes: nodes,
					Network: dsmpm2.BIPMyrinet, Protocol: proto, Seed: 7,
					MisplaceHomes: true, AdaptiveHomes: adaptive,
				})
				return res.System, res.Elapsed, err
			}}
	}
	luf := func(nodes, n int) adaptRun {
		return adaptRun{app: "lu", protocol: "entry_mw", nodes: nodes,
			run: func(adaptive bool) (*dsmpm2.System, dsmpm2.Time, error) {
				res, err := lu.Run(lu.Config{
					N: n, Nodes: nodes,
					Network: dsmpm2.BIPMyrinet, Protocol: "entry_mw", Seed: 5,
					MisplaceHomes: true, AdaptiveHomes: adaptive,
				})
				return res.System, res.Elapsed, err
			}}
	}
	mat := func(nodes, n int) adaptRun {
		return adaptRun{app: "matmul", protocol: "li_hudak", nodes: nodes,
			run: func(adaptive bool) (*dsmpm2.System, dsmpm2.Time, error) {
				res, err := matmul.Run(matmul.Config{
					N: n, Nodes: nodes,
					Network: dsmpm2.BIPMyrinet, Protocol: "li_hudak", Seed: 3,
					MisplaceHomes: true, AdaptiveHomes: adaptive,
				})
				return res.System, res.Elapsed, err
			}}
	}
	return []adaptRun{
		// The headline: the producer-consumer stencil at cluster scale.
		jac("entry_mw", 16, 32, 16),
		jac("entry_mw", 64, 64, 16),
		// The diff-traffic view of the same move: under hbrc_mw the fetch
		// count barely moves (write notices already keep the sole writer's
		// copy alive), but every epoch's diffs stop crossing the wire once
		// the writer IS the home.
		jac("hbrc_mw", 16, 32, 16),
		// lu's shrinking-reader broadcast: own-row updates dominate, so a
		// misplaced home is refetched at every elimination step.
		luf(16, 24),
		// matmul has no barriers: the profiler counts but never folds an
		// epoch, so migration never triggers — the no-op control proving
		// the machinery costs nothing without evidence.
		mat(16, 24),
	}
}

// AdaptSuite runs every scenario with static and adaptive placement and
// returns the results, static and adaptive rows interleaved per scenario.
func AdaptSuite() []AdaptResult {
	var out []AdaptResult
	for _, a := range adaptRuns() {
		out = append(out, a.measure(false), a.measure(true))
	}
	return out
}
