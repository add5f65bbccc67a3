package jacobi

import (
	"encoding/json"
	"fmt"

	"dsmpm2"
)

// Session is the chunked, checkpointable form of the kernel. The same work
// the monolithic Run performs is split into steps that each end at a drained
// safe point, so the full simulation state can be captured between any two
// steps (Checkpoint), restored into a fresh process (ResumeSession) and run
// to completion bit-identically to the unbroken session.
//
// Each work unit (unit 0 is grid initialization, unit k is sweep k-1) is
// two steps:
//
//   - phase A: every node computes its block, flushes its diffs home and
//     records a local checkpoint claiming the unit;
//   - phase B: every node arrives at the cluster barrier for the unit's
//     generation.
//
// Threads cannot survive a safe point (their stacks are not serializable),
// so each step spawns fresh single-phase workers; the cross-step state is
// exactly the Session's few counters, which serialize into the checkpoint's
// application blob. Chunking perturbs thread ids relative to the monolithic
// kernel, so chunked runs are compared against chunked runs.
//
// With a fault plan, the session injects it through the fault cursor
// (events parked across a safe point fire in the next chunk), homes every
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
	// against). Set it before the run reaches the plan's restart events.
	ColdRestart bool

	// PerturbStep, when >= 0, injects a deterministic perturbation at the
	// start of that step: an extra thread on node 0 re-reads and rewrites one
	// shared grid word and flushes. The data is unchanged (the word keeps its
	// value) but the protocol traffic is not, so every fingerprint from that
	// step on diverges — the model of a trace-breaking change used by
	// `dsmbench -exp bisect`.
	PerturbStep int

	// curUnit/curPhase locate the step in progress, so a node restarting
	// mid-step knows how far its catch-up worker must go.
	curUnit  int
	curPhase int

	// finishedAt is the latest instant a worker completed a final-unit
	// barrier — the computation's true end, immune to trailing plan events.
	finishedAt dsmpm2.Time
}

// sessionState is the Session's half of a checkpoint: everything the
// application layer needs to rebuild its side of the run, carried opaquely
// in Checkpoint.App.
type sessionState struct {
	N          int             `json:"n"`
	Iterations int             `json:"iterations"`
	CellCost   dsmpm2.Duration `json:"cell_cost"`
	Step       int             `json:"step"`
	Bar        int             `json:"bar"`
	Done       []int           `json:"done"`
	Cold       bool            `json:"cold,omitempty"`
	Grids      [2][]uint64     `json:"grids"`
	FinishedAt dsmpm2.Time     `json:"finished_at"`
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

// Checkpoint captures the full simulation state plus the session's own
// counters at the current safe point. Valid between any two steps (and
// before the first or after the last).
func (s *Session) Checkpoint() (*dsmpm2.Checkpoint, error) {
	st := sessionState{
		N:          s.cfg.N,
		Iterations: s.cfg.Iterations,
		CellCost:   s.cfg.CellCost,
		Step:       s.step,
		Bar:        s.bar,
		Done:       append([]int(nil), s.done...),
		Cold:       s.ColdRestart,
		FinishedAt: s.finishedAt,
	}
	for k, rows := range s.g.rows {
		for _, a := range rows {
			st.Grids[k] = append(st.Grids[k], uint64(a))
		}
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return s.sys.Checkpoint(blob)
}

// ResumeSession rebuilds a session from a checkpoint taken by
// Session.Checkpoint. Running the restored session to completion is
// bit-identical to running the original one without the interruption.
func ResumeSession(ck *dsmpm2.Checkpoint) (*Session, error) {
	var st sessionState
	if err := json.Unmarshal(ck.App, &st); err != nil {
		return nil, fmt.Errorf("jacobi: checkpoint carries no session state: %w", err)
	}
	nodes := len(st.Done)
	if nodes == 0 || st.N < 2 {
		return nil, fmt.Errorf("jacobi: malformed session state in checkpoint")
	}
	s := &Session{
		cfg:         Config{N: st.N, Iterations: st.Iterations, Nodes: nodes, CellCost: st.CellCost},
		units:       st.Iterations + 1,
		step:        st.Step,
		bar:         st.Bar,
		done:        append([]int(nil), st.Done...),
		ColdRestart: st.Cold,
		PerturbStep: -1,
		finishedAt:  st.FinishedAt,
	}
	sys, err := dsmpm2.Restore(ck, dsmpm2.RestoreOptions{OnRestart: s.onRestart})
	if err != nil {
		return nil, err
	}
	s.sys = sys
	s.g = &grid{n: st.N, nodes: nodes, cellCost: st.CellCost}
	for k, rows := range st.Grids {
		if len(rows) != st.N+2 {
			return nil, fmt.Errorf("jacobi: session state has %d grid rows, want %d", len(rows), st.N+2)
		}
		for _, a := range rows {
			s.g.rows[k] = append(s.g.rows[k], dsmpm2.Addr(a))
		}
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
