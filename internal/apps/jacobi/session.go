package jacobi

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dsmpm2"
)

// Session is the restart-aware, checkpointable form of the kernel, and Run's
// driver under a fault plan. Each work unit (unit 0 is grid initialization,
// unit k the k-th sweep) is numbered, and so is the barrier generation that
// closes it, so a restarted worker rejoins at exactly the generation the
// cluster is in. A worker computes its unit, flushes its diffs home, records
// the unit in done (its local checkpoint, which never claims work whose
// modifications would die with the node) and arrives at the unit's
// generation. A crash therefore costs at most one redone unit.
//
// The workers run one continuous loop; the session only pauses it. Node 0
// pauses the run just before it arrives at each generation after the first,
// so a step is one System.Run that the next pause ends, and the last step
// runs to the end. Between any two steps, Checkpoint takes a resume token;
// ResumeSession, in this process or another, rebuilds the session from it,
// replays the recorded steps and checks that the replay reached the recorded
// fingerprint, so the resumed session runs to completion exactly as the
// unbroken one would. Pausing before the arrival, not after it, lets a token
// be taken while a crashed node is still down.
//
// With a fault plan, every grid row is homed on protected node 0 (a
// home-based protocol then keeps committed units on a node the plan never
// kills), and a restarted node resumes from its last recorded unit, or from
// scratch when ColdRestart is set: the A/B knob behind the redone-work
// comparison in `dsmbench -exp ckpt`.
type Session struct {
	cfg  Config
	sys  *dsmpm2.System
	g    *grid
	bar  int
	step int   // steps run, in [0, Steps()]
	done []int // per node: the last unit it committed home (-1 none)

	// redoneUnits counts the units restarted nodes redo: committed before
	// their crash, but after the point they resume from. warmRestarts counts
	// the restarts that resumed from a checkpoint rather than from scratch.
	redoneUnits  int64
	warmRestarts int

	// ColdRestart makes restarted nodes ignore their checkpoints and
	// redo every unit from scratch (the baseline the warm path is measured
	// against). Set it before the first step: a token records its value at
	// capture, and the replay runs every step with it.
	ColdRestart bool

	// PerturbStep, when >= 0, injects a deterministic perturbation at the
	// start of that step: an extra thread on node 0 re-reads and rewrites one
	// shared grid word and flushes. The data is unchanged (the word keeps its
	// value) but the protocol traffic is not, so every fingerprint from that
	// step on diverges — the model of a trace-breaking change used by
	// `dsmbench -exp bisect`. Like ColdRestart, set it before the first step.
	PerturbStep int

	// finishedAt is the latest instant a worker completed its final unit:
	// the computation's end, which trailing plan events do not move.
	finishedAt dsmpm2.Time
}

// sessionToken is the Session's half of a checkpoint, carried in
// Checkpoint.App: the session config beyond the system's (which the token's
// own Config and Plan carry), the two knobs, and the number of steps to
// replay.
type sessionToken struct {
	N             int  `json:"n"`
	Iterations    int  `json:"iterations"`
	MisplaceHomes bool `json:"misplace_homes,omitempty"`
	Cold          bool `json:"cold,omitempty"`
	PerturbStep   int  `json:"perturb_step"`
	Step          int  `json:"step"`
}

// NewSession builds a session over a fresh system: shared grids allocated,
// barrier created, fault plan (if any) injected and the workers spawned. No
// step has run yet.
func NewSession(cfg Config) (*Session, error) {
	sys, err := newSystem(cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, sys: sys, done: make([]int, cfg.Nodes), PerturbStep: -1}
	for i := range s.done {
		s.done[i] = -1
	}
	// Fault plans require the reliable-home layout (all rows on protected
	// node 0), which is also the adapt experiment's deliberately bad
	// placement.
	home0 := cfg.FaultPlan != nil || cfg.MisplaceHomes
	s.g = newGrid(sys, cfg, home0, !home0)
	s.bar = sys.NewBarrier(cfg.Nodes)
	if cfg.FaultPlan != nil {
		if err := sys.InjectFaults(cfg.FaultPlan, dsmpm2.FaultOptions{OnRestart: s.onRestart}); err != nil {
			return nil, err
		}
	}
	for node := 0; node < cfg.Nodes; node++ {
		sys.Spawn(node, fmt.Sprintf("jacobi%d", node), func(t *dsmpm2.Thread) { s.work(t, node, 0) })
	}
	return s, nil
}

// System exposes the session's platform instance.
func (s *Session) System() *dsmpm2.System { return s.sys }

// Steps reports the session's total step count: one per barrier generation.
func (s *Session) Steps() int { return s.cfg.Iterations + 1 }

// StepsDone reports how many steps have completed.
func (s *Session) StepsDone() int { return s.step }

// work runs node's units from start to the last: compute, flush the diffs
// home, record the unit, then arrive at its generation. Node 0 pauses the
// run before each arrival after the first: those are the step boundaries.
func (s *Session) work(t *dsmpm2.Thread, node, start int) {
	for unit := start; unit <= s.cfg.Iterations; unit++ {
		s.g.unit(t, node, unit)
		t.Flush()
		s.done[node] = unit
		if node == 0 && unit > 0 {
			s.sys.Pause()
		}
		t.BarrierAs(s.bar, node, unit)
	}
	if now := t.Now(); now > s.finishedAt {
		s.finishedAt = now
	}
}

// onRestart is the node-restart hook: it accounts the redone work and spawns
// a worker that resumes from the node's last recorded unit (none, for a cold
// restart). The crash may have hit between that record and its barrier
// arrival, so the worker re-arrives for the recorded generation first;
// arrivals are idempotent, and a duplicate one takes over the dead
// predecessor's slot.
func (s *Session) onRestart(node int) {
	done := s.done[node]
	if s.ColdRestart {
		s.redoneUnits += int64(done + 1)
		done, s.done[node] = -1, -1
	} else if done >= 0 {
		s.warmRestarts++
	}
	s.sys.Spawn(node, fmt.Sprintf("jacobi%d.r", node), func(t *dsmpm2.Thread) {
		if done >= 0 {
			t.BarrierAs(s.bar, node, done)
		}
		s.work(t, node, done+1)
	})
}

// Step runs the session to its next pause, or to its end in the last step.
// After it returns (nil), Checkpoint may be called.
func (s *Session) Step() error {
	if s.step >= s.Steps() {
		return fmt.Errorf("jacobi: session already ran all %d steps", s.Steps())
	}
	if s.step == s.PerturbStep {
		s.sys.Spawn(0, "perturb", func(t *dsmpm2.Thread) {
			addr := s.g.rows[0][1] + 8
			t.WriteUint64(addr, t.ReadUint64(addr)) // same value, extra traffic
			t.Flush()
		})
	}
	s.step++
	return s.sys.Run()
}

// RunToEnd executes every remaining step.
func (s *Session) RunToEnd() error {
	for s.step < s.Steps() {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint takes a resume token for the current step. Valid between any
// two steps (and before the first or after the last).
func (s *Session) Checkpoint() (*dsmpm2.Checkpoint, error) {
	blob, err := json.Marshal(sessionToken{
		N:             s.cfg.N,
		Iterations:    s.cfg.Iterations,
		MisplaceHomes: s.cfg.MisplaceHomes,
		Cold:          s.ColdRestart,
		PerturbStep:   s.PerturbStep,
		Step:          s.step,
	})
	if err != nil {
		return nil, err
	}
	return s.sys.Checkpoint(blob)
}

// maxTokenN and maxTokenIterations bound the session a token may name: the
// grids are sized by N and the replay by the iteration count before the
// token's fingerprint can be checked, so a larger one is refused rather than
// built.
const (
	maxTokenN          = 1024
	maxTokenIterations = 1 << 16
)

// ResumeSession rebuilds a session from a token taken by Session.Checkpoint:
// it validates the token, builds the session with NewSession and replays the
// recorded steps (Checkpoint.Replay). It returns an error unless the replay
// reaches the fingerprint the token recorded, so a resumed session is the
// original one at the same step, and running it to completion is
// bit-identical to the unbroken run. Resuming costs what running to the
// step cost: the size a token names is bounded before anything is built,
// but within those bounds resume a token only from a source whose runs you
// would run.
func ResumeSession(ck *dsmpm2.Checkpoint) (*Session, error) {
	sys, err := ck.SystemConfig()
	if err != nil {
		return nil, err
	}
	if sys.LinkContention {
		return nil, fmt.Errorf("jacobi: a session runs without link contention; the checkpoint's system has it")
	}
	var tok sessionToken
	dec := json.NewDecoder(bytes.NewReader(ck.App))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tok); err != nil {
		return nil, fmt.Errorf("jacobi: checkpoint carries no session token: %w", err)
	}
	if tok.N < 2 || tok.N > maxTokenN || tok.Iterations < 1 || tok.Iterations > maxTokenIterations {
		return nil, fmt.Errorf("jacobi: checkpoint of an N=%d, %d-iteration session (tokens name N 2 to %d, 1 to %d iterations)",
			tok.N, tok.Iterations, maxTokenN, maxTokenIterations)
	}
	if tok.Step < 0 || tok.Step > tok.Iterations+1 {
		return nil, fmt.Errorf("jacobi: checkpoint at step %d of a %d-iteration session", tok.Step, tok.Iterations)
	}
	s, err := NewSession(Config{
		N: tok.N, Iterations: tok.Iterations, Nodes: sys.Nodes,
		Network: sys.Network, Protocol: sys.Protocol, Seed: sys.Seed,
		MisplaceHomes: tok.MisplaceHomes, AdaptiveHomes: sys.AdaptiveHomes,
		FaultPlan: ck.Plan,
	})
	if err != nil {
		return nil, err
	}
	s.ColdRestart, s.PerturbStep = tok.Cold, tok.PerturbStep
	if err := ck.Replay(s.sys, tok.Step, s.Step); err != nil {
		return nil, fmt.Errorf("jacobi: %w", err)
	}
	return s, nil
}

// Result collects the checksum and final counters. Call after RunToEnd.
func (s *Session) Result() (Result, error) {
	if s.step < s.Steps() {
		return Result{}, fmt.Errorf("jacobi: session has %d steps left", s.Steps()-s.step)
	}
	return s.g.checksum(s.sys, s.cfg.Iterations, Result{Elapsed: s.finishedAt, Stats: s.sys.Stats(), System: s.sys,
		Faults: s.sys.FaultStats(), Recovery: s.sys.RecoveryStats(),
		RedoneUnits: s.redoneUnits, WarmRestarts: s.warmRestarts})
}
