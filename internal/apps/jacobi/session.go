package jacobi

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dsmpm2"
)

// Session is the chunked, checkpointable form of the kernel. The same work
// the monolithic Run performs is split into steps that each end with the
// event queue drained. Between any two steps, Checkpoint takes a resume
// token; ResumeSession, in this process or another, rebuilds the session
// from it, replays the recorded steps and checks that the replay reached the
// recorded fingerprint, so the resumed session runs to completion exactly as
// the unbroken one would.
//
// Each work unit (unit 0 is grid initialization, unit k is sweep k-1) is
// two steps:
//
//   - phase A: every node computes its block, flushes its diffs home and
//     records a local checkpoint claiming the unit;
//   - phase B: every node arrives at the cluster barrier for the unit's
//     generation.
//
// Each step spawns fresh single-phase workers, so no thread outlives a step;
// the cross-step state is the Session's few counters. Chunking perturbs
// thread ids relative to the monolithic kernel, so chunked runs are compared
// against chunked runs.
//
// With a fault plan, the session injects it through the fault cursor
// (events parked across a step boundary fire in the next step), homes every
// grid row on protected node 0, and restarted nodes catch up from their
// last recorded checkpoint — or from scratch when ColdRestart is set, the
// A/B knob behind the redone-work comparison in `dsmbench -exp ckpt`.
type Session struct {
	cfg   Config
	sys   *dsmpm2.System
	g     *grid
	bar   int
	units int
	step  int   // next step to execute, in [0, Steps()]
	done  []int // per node: last unit whose phase A committed (-1 none)

	// ColdRestart makes restarted nodes ignore the checkpoint registry and
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

	// curUnit/curPhase locate the step in progress, so a node restarting
	// mid-step knows how far its catch-up worker must go.
	curUnit  int
	curPhase int

	// finishedAt is the latest instant a worker completed a final-unit
	// barrier — the computation's true end, immune to trailing plan events.
	finishedAt dsmpm2.Time
}

// sessionToken is the Session's half of a checkpoint, carried in
// Checkpoint.App: the session config beyond the system's (which the token's
// own Config and Plan carry), the two knobs, and the number of steps to
// replay.
type sessionToken struct {
	N             int             `json:"n"`
	Iterations    int             `json:"iterations"`
	CellCost      dsmpm2.Duration `json:"cell_cost"`
	MisplaceHomes bool            `json:"misplace_homes,omitempty"`
	Cold          bool            `json:"cold,omitempty"`
	PerturbStep   int             `json:"perturb_step"`
	Step          int             `json:"step"`
}

// NewSession builds a session over a fresh system: shared grids allocated,
// barrier created, fault plan (if any) injected. No step has run yet. A
// session cannot trace: a checkpoint carries no spans, so Config.Trace is
// refused.
func NewSession(cfg Config) (*Session, error) {
	if cfg.Trace {
		return nil, fmt.Errorf("jacobi: a session cannot trace (checkpoints carry no spans)")
	}
	sys, err := newSystem(&cfg)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, sys: sys, units: cfg.Iterations + 1,
		done: make([]int, cfg.Nodes), PerturbStep: -1}
	for i := range s.done {
		s.done[i] = -1
	}
	// Fault plans require the reliable-home layout (all rows on protected
	// node 0), which is also the adapt experiment's deliberately bad
	// placement.
	home0 := cfg.FaultPlan != nil || cfg.MisplaceHomes
	s.g = newGrid(sys, cfg, home0, !home0)
	s.bar = sys.NewBarrier(cfg.Nodes)
	// Drain whatever construction scheduled: a session sits at a drained
	// safe point between steps, including before the first.
	if err := sys.Run(); err != nil {
		return nil, err
	}
	if cfg.FaultPlan != nil {
		if err := sys.InjectFaults(cfg.FaultPlan, dsmpm2.FaultOptions{OnRestart: s.onRestart}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// System exposes the session's platform instance.
func (s *Session) System() *dsmpm2.System { return s.sys }

// Steps reports the session's total step count: two per work unit.
func (s *Session) Steps() int { return 2 * s.units }

// StepsDone reports how many steps have completed.
func (s *Session) StepsDone() int { return s.step }

// phaseA is one node's commit half of a unit: compute, flush the diffs home
// (the checkpoint must never claim work whose modifications would die with
// the node), then record the local checkpoint.
func (s *Session) phaseA(t *dsmpm2.Thread, node, unit int) {
	s.g.unit(t, node, unit)
	t.Flush()
	s.sys.RecordCheckpoint(node, unit)
	s.done[node] = unit
}

// catchUp replays full units (commit + barrier arrival) from the node's
// resume point through unit `through`. Arrivals for generations the cluster
// already completed are absorbed idempotently (BarrierAs).
func (s *Session) catchUp(t *dsmpm2.Thread, node, through int) {
	for unit := s.done[node] + 1; unit <= through; unit++ {
		s.phaseA(t, node, unit)
		t.BarrierAs(s.bar, node, unit)
	}
}

// noteFinish records a final-unit completion instant.
func (s *Session) noteFinish(t *dsmpm2.Thread, unit int) {
	if unit != s.units-1 {
		return
	}
	if now := t.Now(); now > s.finishedAt {
		s.finishedAt = now
	}
}

// Step executes the next step and drains the system to a safe point. After
// it returns (nil), Checkpoint may be called.
func (s *Session) Step() error {
	if s.step >= s.Steps() {
		return fmt.Errorf("jacobi: session already ran all %d steps", s.Steps())
	}
	u, ph := s.step/2, s.step%2
	s.curUnit, s.curPhase = u, ph
	if s.step == s.PerturbStep {
		s.sys.Spawn(0, "perturb", func(t *dsmpm2.Thread) {
			addr := s.g.rows[0][1] + 8
			t.WriteUint64(addr, t.ReadUint64(addr)) // same value, extra traffic
			t.Flush()
		})
	}
	for node := 0; node < s.cfg.Nodes; node++ {
		if s.sys.NodeDead(node) {
			continue // a restart event re-joins it via onRestart
		}
		node := node
		if ph == 0 {
			s.sys.Spawn(node, fmt.Sprintf("jacobi%d.a%d", node, u), func(t *dsmpm2.Thread) {
				s.catchUp(t, node, u-1)
				if s.done[node] < u {
					s.phaseA(t, node, u)
				}
			})
		} else {
			s.sys.Spawn(node, fmt.Sprintf("jacobi%d.b%d", node, u), func(t *dsmpm2.Thread) {
				// A node revived since the last phase-A step may still be
				// behind; bring it to the frontier before arriving.
				s.catchUp(t, node, u-1)
				if s.done[node] < u {
					s.phaseA(t, node, u)
				}
				t.BarrierAs(s.bar, node, u)
				s.noteFinish(t, u)
			})
		}
	}
	s.step++
	return s.sys.Run()
}

// onRestart is the node-restart hook: it accounts the redone work and spawns
// a catch-up worker that brings the revived node to the step in progress —
// including the in-progress barrier generation when the cluster is parked in
// phase B waiting for the dead node's slot.
func (s *Session) onRestart(node int) {
	start := s.sys.LastCheckpoint(node)
	if s.ColdRestart {
		start = -1
	} else if start >= 0 {
		s.sys.NoteWarmRestart()
	}
	if redone := s.curUnit - (start + 1); redone > 0 {
		s.sys.AddRedoneUnits(redone)
	}
	s.done[node] = start
	target, arrive := s.curUnit, s.curPhase == 1
	s.sys.Spawn(node, fmt.Sprintf("jacobi%d.r", node), func(t *dsmpm2.Thread) {
		if d := s.done[node]; d >= 0 {
			// The crash may have hit between a checkpoint and its barrier:
			// re-arrive for the checkpointed generation (idempotent).
			t.BarrierAs(s.bar, node, d)
		}
		s.catchUp(t, node, target-1)
		if s.done[node] < target {
			s.phaseA(t, node, target)
		}
		if arrive {
			t.BarrierAs(s.bar, node, target)
			s.noteFinish(t, target)
		}
	})
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
		CellCost:      s.cfg.CellCost,
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
	if sys.CPUsPerNode != 0 || sys.LinkContention {
		return nil, fmt.Errorf("jacobi: a session runs one CPU per node without link contention; the checkpoint's system has %d CPUs per node, contention %v",
			sys.CPUsPerNode, sys.LinkContention)
	}
	var tok sessionToken
	dec := json.NewDecoder(bytes.NewReader(ck.App))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tok); err != nil {
		return nil, fmt.Errorf("jacobi: checkpoint carries no session token: %w", err)
	}
	if tok.N < 2 || tok.N > maxTokenN || tok.Iterations < 1 || tok.Iterations > maxTokenIterations || tok.CellCost < 0 {
		return nil, fmt.Errorf("jacobi: checkpoint of an N=%d, %d-iteration session at cell cost %d (tokens name N 2 to %d, 1 to %d iterations, cost >= 0)",
			tok.N, tok.Iterations, tok.CellCost, maxTokenN, maxTokenIterations)
	}
	if steps := 2 * (tok.Iterations + 1); tok.Step < 0 || tok.Step > steps {
		return nil, fmt.Errorf("jacobi: checkpoint at step %d of a %d-iteration session", tok.Step, tok.Iterations)
	}
	s, err := NewSession(Config{
		N: tok.N, Iterations: tok.Iterations, Nodes: sys.Nodes,
		Network: sys.Network, Topology: sys.Topology, Protocol: sys.Protocol, Seed: sys.Seed,
		CellCost: tok.CellCost, MisplaceHomes: tok.MisplaceHomes, AdaptiveHomes: sys.AdaptiveHomes,
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
		Faults: s.sys.FaultStats(), Recovery: s.sys.RecoveryStats()})
}
