package bench

// The "ckpt" experiment: the checkpoint subsystem's consumers, measured on
// the chunked jacobi session.
//
//   - Round-trip: a resume token at every step of a 16-node run, resumed
//     through its wire form (which replays the recorded steps and checks the
//     recorded fingerprint) and run to the end — the final fingerprint must
//     match the unbroken run's at every sweep point (the subsystem's core
//     property, also enforced by the test suite; the bench re-checks it on
//     the exact workload whose numbers it reports).
//   - Crash-restart: the faulty plan's restarted node resumes from its
//     latest recorded checkpoint (warm) versus redoing every unit from
//     scratch (cold). The headline number is RedoneUnits: warm must redo
//     strictly fewer.
//
// Every number is deterministic per seed.

import (
	"fmt"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
)

// ckptSessionConfig is the pinned workload of the ckpt experiment: the
// 16-node jacobi session the round-trip property test sweeps.
func ckptSessionConfig() jacobi.Config {
	return jacobi.Config{
		N: 16, Iterations: 3, Nodes: 16,
		Network:  dsmpm2.BIPMyrinet,
		Protocol: "hbrc_mw",
		Seed:     7,
	}
}

// ckptFaultyConfig adds the crash/restart plan: node 2 fail-stops three
// times, once per work unit. The engine drains each step's queue to a safe
// point, so a fault event armed mid-drain parks and fires at the start of
// the next step: each cycle's crash lands at the start of a phase-A step
// (units 0, 1 and 2 in turn) and its restart at the start of the following
// step. By the later cycles node 2 has committed earlier units, so a cold
// restart redoes them from scratch while a warm restart resumes from the
// checkpoint registry — the comparison CkptRestartCompare measures.
func ckptFaultyConfig() jacobi.Config {
	cfg := ckptSessionConfig()
	cfg.FaultPlan = dsmpm2.NewFaultPlan(11).
		Crash(dsmpm2.Time(400*dsmpm2.Microsecond), 2).
		Restart(dsmpm2.Time(20*dsmpm2.Millisecond), 2).
		Crash(dsmpm2.Time(21*dsmpm2.Millisecond), 2).
		Restart(dsmpm2.Time(40*dsmpm2.Millisecond), 2).
		Crash(dsmpm2.Time(41*dsmpm2.Millisecond), 2).
		Restart(dsmpm2.Time(60*dsmpm2.Millisecond), 2)
	return cfg
}

// CkptRoundtrip is the sweep half of BENCH_ckpt.json.
type CkptRoundtrip struct {
	Steps         int     `json:"steps"`
	Swept         int     `json:"swept"`
	Mismatches    int     `json:"mismatches"`
	Fingerprint   string  `json:"fingerprint"`
	Checksum      float64 `json:"checksum"`
	VirtualMS     float64 `json:"virtual_ms"`
	SnapshotBytes int     `json:"snapshot_bytes"`
}

// CkptRestart is one restart-policy row: how much work the faulty run redid
// and whether the final grid matched the fault-free reference. Warm always
// matches; cold loses both ways — it redoes committed units AND, because
// the Jacobi buffers rotate, the inputs of those old units no longer exist
// anywhere, so the redo recomputes them from moved-on neighbour data and
// corrupts the answer. Per-unit checkpoints are what make node-local
// recovery consistent, not just cheap.
type CkptRestart struct {
	Mode         string  `json:"mode"` // "warm" (from checkpoint) or "cold" (from scratch)
	RedoneUnits  int64   `json:"redone_units"`
	WarmRestarts int     `json:"warm_restarts"`
	VirtualMS    float64 `json:"virtual_ms"`
	Checksum     float64 `json:"checksum"`
	ChecksumOK   bool    `json:"checksum_ok"` // equals the fault-free reference checksum
	Fingerprint  string  `json:"fingerprint"`
}

// runSteps builds a session from cfg and executes the first `steps` steps.
func runSteps(cfg jacobi.Config, steps int, cold bool) (*jacobi.Session, error) {
	s, err := jacobi.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	s.ColdRestart = cold
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			return nil, fmt.Errorf("step %d: %w", i, err)
		}
	}
	return s, nil
}

// finish drives a session to completion and returns its result.
func finish(s *jacobi.Session) (jacobi.Result, error) {
	if err := s.RunToEnd(); err != nil {
		return jacobi.Result{}, err
	}
	return s.Result()
}

// CkptRoundtripSweep checkpoints the pinned session at every step, resumes
// each token through the wire form, runs to the end and counts fingerprint
// mismatches against the unbroken run (zero, or the subsystem is broken).
func CkptRoundtripSweep() (CkptRoundtrip, error) {
	ref, err := runSteps(ckptSessionConfig(), 0, false)
	if err != nil {
		return CkptRoundtrip{}, err
	}
	refRes, err := finish(ref)
	if err != nil {
		return CkptRoundtrip{}, err
	}
	out := CkptRoundtrip{
		Steps:       ref.Steps(),
		Fingerprint: ref.System().Fingerprint(),
		Checksum:    refRes.Checksum,
		VirtualMS:   float64(refRes.Elapsed) / 1e6,
	}
	for k := 0; k <= out.Steps; k++ {
		s, err := runSteps(ckptSessionConfig(), k, false)
		if err != nil {
			return out, err
		}
		ck, err := s.Checkpoint()
		if err != nil {
			return out, fmt.Errorf("checkpoint at step %d: %w", k, err)
		}
		data, err := ck.Encode()
		if err != nil {
			return out, err
		}
		if len(data) > out.SnapshotBytes {
			out.SnapshotBytes = len(data)
		}
		ck2, err := dsmpm2.DecodeCheckpoint(data)
		if err != nil {
			return out, err
		}
		resumed, err := jacobi.ResumeSession(ck2)
		if err != nil {
			return out, fmt.Errorf("resume at step %d: %w", k, err)
		}
		if _, err := finish(resumed); err != nil {
			return out, err
		}
		out.Swept++
		if resumed.System().Fingerprint() != out.Fingerprint {
			out.Mismatches++
		}
	}
	return out, nil
}

// CkptRestartCompare runs the faulty session once with warm restarts (the
// revived node resumes from its last recorded checkpoint) and once cold
// (redo from scratch), returning both rows. Warm must redo strictly fewer
// units — the acceptance headline — and must reproduce the fault-free
// checksum bit-exactly; cold is expected to drift (see CkptRestart).
func CkptRestartCompare() (warm, cold CkptRestart, err error) {
	measure := func(coldRestart bool) (CkptRestart, error) {
		s, err := runSteps(ckptFaultyConfig(), 0, coldRestart)
		if err != nil {
			return CkptRestart{}, err
		}
		res, err := finish(s)
		if err != nil {
			return CkptRestart{}, err
		}
		mode := "warm"
		if coldRestart {
			mode = "cold"
		}
		return CkptRestart{
			Mode:         mode,
			RedoneUnits:  res.Recovery.RedoneUnits,
			WarmRestarts: res.Recovery.WarmRestarts,
			VirtualMS:    float64(res.Elapsed) / 1e6,
			Checksum:     res.Checksum,
			Fingerprint:  s.System().Fingerprint(),
		}, nil
	}
	if warm, err = measure(false); err != nil {
		return
	}
	cold, err = measure(true)
	return
}

// CkptBisect is the divergence-bisection demo: a deliberate perturbation is
// injected at a known step, and the binary search recovers that step from
// fingerprint comparisons alone.
type CkptBisect struct {
	Steps        int  `json:"steps"`
	InjectedStep int  `json:"injected_step"`
	FoundStep    int  `json:"found_step"`
	Probes       int  `json:"probes"`
	Recovered    bool `json:"recovered"`
}

// BisectDivergence binary-searches the first safe point at which a run's
// fingerprint diverges from the reference ledger. reference[k] is the
// fingerprint after k steps of the good run; probe(k) returns the candidate
// run's fingerprint after k steps. Returns the smallest k whose fingerprints
// differ (so the divergence was introduced by step k, 1-based prefix), or -1
// if the runs never diverge, plus the probe count.
func BisectDivergence(reference []string, probe func(steps int) (string, error)) (int, int, error) {
	probes := 0
	lastEq := func(k int) (bool, error) {
		probes++
		fp, err := probe(k)
		if err != nil {
			return false, err
		}
		return fp == reference[k], nil
	}
	// Invariant: fingerprints match after lo steps, diverge after hi steps.
	lo, hi := 0, len(reference)-1
	if same, err := lastEq(hi); err != nil {
		return -1, probes, err
	} else if same {
		return -1, probes, nil
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		same, err := lastEq(mid)
		if err != nil {
			return -1, probes, err
		}
		if same {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi, probes, nil
}

// CkptBisectRun demonstrates the bisect consumer on the pinned session: a
// perturbation at step `inject` (an extra same-value write + flush, data
// intact but traffic changed) and a binary search that recovers it.
func CkptBisectRun(inject int) (CkptBisect, error) {
	// Reference ledger: fingerprint after every step of the good run.
	ref, err := runSteps(ckptSessionConfig(), 0, false)
	if err != nil {
		return CkptBisect{}, err
	}
	ledger := []string{ref.System().Fingerprint()}
	for i := 0; i < ref.Steps(); i++ {
		if err := ref.Step(); err != nil {
			return CkptBisect{}, err
		}
		ledger = append(ledger, ref.System().Fingerprint())
	}
	out := CkptBisect{Steps: ref.Steps(), InjectedStep: inject}
	if inject < 0 || inject >= ref.Steps() {
		return out, fmt.Errorf("ckpt bisect: inject step %d outside [0,%d)", inject, ref.Steps())
	}
	found, probes, err := BisectDivergence(ledger, func(steps int) (string, error) {
		s, err := runSteps(ckptSessionConfig(), 0, false)
		if err != nil {
			return "", err
		}
		s.PerturbStep = inject
		for i := 0; i < steps; i++ {
			if err := s.Step(); err != nil {
				return "", err
			}
		}
		return s.System().Fingerprint(), nil
	})
	if err != nil {
		return out, err
	}
	out.FoundStep = found
	out.Probes = probes
	// The perturbation lands at the start of step `inject`, so the first
	// divergent ledger index is inject+1 (the fingerprint after that step).
	out.Recovered = found == inject+1
	return out, nil
}
