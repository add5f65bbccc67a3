package dsmpm2

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"dsmpm2/internal/core"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Checkpoint/restore of full simulation state. A Checkpoint is taken at a
// safe point — between Run chunks, when the event queue is drained and no
// protocol action is mid-flight — and records everything the deterministic
// replay depends on: the kernel's clock/sequence/RNG position, the DSM's
// pages, page tables, synchronization managers and protocol state, the
// network's occupancy clocks and fault views, the PM2 runtime's counters,
// and the fault-plan cursor. Restoring it into a fresh System and running to
// completion is bit-identical to never having stopped: same TimingLog
// fingerprint, same stats, same final clock.
//
// Three consumers ride on this:
//
//   - crash-restart experiments, where a restarted node's OnRestart hook
//     warm-starts from the last recorded checkpoint instead of redoing the
//     whole run (see DSM.RecordCheckpoint / LastCheckpoint);
//   - warm-started benchmarks, which restore a post-ramp-up snapshot
//     instead of replaying the ramp-up;
//   - divergence bisection (`dsmbench -exp bisect`), which binary-searches
//     the first run step whose fingerprint diverges from a golden ledger.

// CheckpointVersion is the current snapshot format version. Decoders reject
// other versions with an error (never a panic), so stale snapshot files fail
// loudly instead of misrestoring. Version 1 carried per-shard state
// (net.shards[], kernel_shards, shard_next, shard_stats/shard_timings,
// config.shards); version 2 carried the communication-path selector
// (core.batch and its config flag); version 3 carried per-node NIC clocks
// (net.nic_free), the partition policy (partition, net.faults.policy), the
// retry tuning (core.recovery.timeout, backoff, retry_max, jitter, jitter_seed,
// jitter_draws) and the profiler's ring size (core.profiler.window); version 4
// carried the profiler's re-homing hysteresis (core.profiler.stability);
// version 5 has none of them.
const CheckpointVersion = 5

// TopologyState serializes a topology by profile names. Only uniform and
// hierarchical topologies round-trip — a LinkMatrix holds arbitrary
// profiles with no registry to resolve them from, and is rejected at
// capture.
type TopologyState struct {
	Kind      string `json:"kind"` // "uniform" or "hier"
	Profile   string `json:"profile,omitempty"`
	ClusterOf []int  `json:"cluster_of,omitempty"`
	Intra     string `json:"intra,omitempty"`
	Inter     string `json:"inter,omitempty"`
}

// ConfigState is the serializable form of Config.
type ConfigState struct {
	Nodes          int            `json:"nodes"`
	CPUsPerNode    int            `json:"cpus_per_node,omitempty"`
	Network        string         `json:"network,omitempty"`
	Topology       *TopologyState `json:"topology,omitempty"`
	LinkContention bool           `json:"link_contention,omitempty"`
	Protocol       string         `json:"protocol"`
	Seed           int64          `json:"seed"`
}

// CursorState is the fault-plan cursor's resumable position.
type CursorState struct {
	Next int        `json:"next"`
	Base Time       `json:"base"`
	Plan *FaultPlan `json:"plan"`
}

// Checkpoint is a full simulation snapshot. Build one with
// System.Checkpoint, persist with Save/Encode, rebuild a System with
// Restore.
type Checkpoint struct {
	Config      ConfigState         `json:"config"`
	Kernel      sim.Snapshot        `json:"kernel"`
	Core        *core.CoreState     `json:"core"`
	Net         *madeleine.NetState `json:"net"`
	Runtime     *pm2.RuntimeState   `json:"runtime"`
	Cursor      *CursorState        `json:"cursor,omitempty"`
	App         json.RawMessage     `json:"app,omitempty"`
	Fingerprint string              `json:"fingerprint"`
}

// Fingerprint hashes the system's observable trace — final clock, every
// recorded fault timing, the DSM stats — into a hex digest. Two runs of the
// same workload under the same seed produce identical fingerprints; a
// restored run's fingerprint at completion equals the unbroken run's. (The
// bench package's TraceFingerprint is this same digest.)
func (s *System) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "now=%d\n", s.Now())
	for _, ft := range s.Timings().All() {
		fmt.Fprintf(h, "%s|%v|%s|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			ft.Protocol, ft.Write, ft.Link, ft.Start,
			ft.Detect, ft.Request, ft.Server, ft.Transfer, ft.Install,
			ft.Migration, ft.Overhead, ft.Total)
	}
	st := s.Stats()
	fmt.Fprintf(h, "stats=%+v\n", st)
	return hex.EncodeToString(h.Sum(nil))
}

// configState serializes the system's retained configuration, resolving the
// topology to registry profile names.
func (s *System) configState() (ConfigState, error) {
	cs := ConfigState{
		Nodes:          s.cfg.Nodes,
		CPUsPerNode:    s.cfg.CPUsPerNode,
		LinkContention: s.cfg.LinkContention,
		Protocol:       s.cfg.Protocol,
		Seed:           s.cfg.Seed,
	}
	profName := func(p *NetworkProfile) (string, error) {
		if p == nil {
			return "", fmt.Errorf("dsmpm2: checkpoint of a nil network profile")
		}
		if madeleine.ByName(p.Name) == nil {
			return "", fmt.Errorf("dsmpm2: network profile %q is not in the registry; checkpoints only serialize registered profiles", p.Name)
		}
		return p.Name, nil
	}
	switch topo := s.cfg.Topology.(type) {
	case nil:
		name, err := profName(s.cfg.Network)
		if err != nil {
			return ConfigState{}, err
		}
		cs.Network = name
	case *madeleine.Uniform:
		name, err := profName(topo.P)
		if err != nil {
			return ConfigState{}, err
		}
		cs.Topology = &TopologyState{Kind: "uniform", Profile: name}
	case *madeleine.Hierarchical:
		intra, err := profName(topo.Intra)
		if err != nil {
			return ConfigState{}, err
		}
		inter, err := profName(topo.Inter)
		if err != nil {
			return ConfigState{}, err
		}
		ts := &TopologyState{Kind: "hier", Intra: intra, Inter: inter}
		for n := 0; n < topo.Nodes(); n++ {
			ts.ClusterOf = append(ts.ClusterOf, topo.ClusterOf(n))
		}
		cs.Topology = ts
	default:
		return ConfigState{}, fmt.Errorf("dsmpm2: topology %s is not checkpoint-serializable (only uniform and hierarchical topologies round-trip)", topo.Name())
	}
	return cs, nil
}

// toConfig rebuilds a Config from its serialized form.
func (cs ConfigState) toConfig() (Config, error) {
	cfg := Config{
		Nodes:          cs.Nodes,
		CPUsPerNode:    cs.CPUsPerNode,
		LinkContention: cs.LinkContention,
		Protocol:       cs.Protocol,
		Seed:           cs.Seed,
	}
	resolve := func(name string) (*NetworkProfile, error) {
		p := madeleine.ByName(name)
		if p == nil {
			return nil, fmt.Errorf("dsmpm2: checkpoint references unknown network profile %q", name)
		}
		return p, nil
	}
	if ts := cs.Topology; ts != nil {
		switch ts.Kind {
		case "uniform":
			p, err := resolve(ts.Profile)
			if err != nil {
				return Config{}, err
			}
			cfg.Topology = madeleine.NewUniform(p)
		case "hier":
			intra, err := resolve(ts.Intra)
			if err != nil {
				return Config{}, err
			}
			inter, err := resolve(ts.Inter)
			if err != nil {
				return Config{}, err
			}
			cfg.Topology = madeleine.NewHierarchical(ts.ClusterOf, intra, inter)
		default:
			return Config{}, fmt.Errorf("dsmpm2: checkpoint has unknown topology kind %q", ts.Kind)
		}
	} else {
		p, err := resolve(cs.Network)
		if err != nil {
			return Config{}, err
		}
		cfg.Network = p
	}
	return cfg, nil
}

// Checkpoint captures the full simulation state at a safe point. app is the
// application layer's own serialized progress (thread positions, iteration
// counters — whatever it needs to rebuild its workers), carried opaquely.
// The call fails with a descriptive error — and never mutates the system —
// when the moment is not a safe point: events still queued, threads alive, a
// lock held, a fetch pending, a twin outstanding, messages parked on a
// partitioned link.
func (s *System) Checkpoint(app []byte) (*Checkpoint, error) {
	cfgState, err := s.configState()
	if err != nil {
		return nil, err
	}
	kernel, err := s.rt.Engine().Capture()
	if err != nil {
		return nil, err
	}
	coreState, err := s.dsm.CaptureState()
	if err != nil {
		return nil, err
	}
	netState, err := s.rt.Network().CaptureState()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		Config:      cfgState,
		Kernel:      kernel,
		Core:        coreState,
		Net:         netState,
		Runtime:     s.rt.CaptureState(),
		App:         append([]byte(nil), app...),
		Fingerprint: s.Fingerprint(),
	}
	if s.cursor != nil {
		next, base := s.cursor.Pos()
		ck.Cursor = &CursorState{Next: next, Base: base, Plan: s.faultPlan}
	}
	return ck, nil
}

// RestoreOptions tunes Restore.
type RestoreOptions struct {
	// OnRestart re-attaches the application's node-restart hook (hooks do
	// not serialize); required when the checkpoint's fault plan has restart
	// events still pending.
	OnRestart func(node int)
}

// Restore builds a fresh System from a checkpoint. The returned system is at
// the captured virtual time with the captured state installed; the caller
// rebuilds its application threads from ck.App and calls Run to continue.
// Running a restored system to completion is bit-identical to the unbroken
// run.
func Restore(ck *Checkpoint, opts RestoreOptions) (*System, error) {
	if ck == nil || ck.Core == nil || ck.Net == nil || ck.Runtime == nil {
		return nil, fmt.Errorf("dsmpm2: restore of an incomplete checkpoint")
	}
	if err := ck.checkShape(); err != nil {
		return nil, err
	}
	cfg, err := ck.Config.toConfig()
	if err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	// The profiler is part of the construction (enabling it registers the
	// migrate services), so it comes up before the drain below.
	if p := ck.Core.Profiler; p != nil {
		s.dsm.EnableProfiler(core.ProfilerConfig{Migrate: p.Migrate})
	}
	// Drain whatever construction scheduled; afterwards the engine is
	// quiesced and restorable.
	if err := s.rt.Run(); err != nil {
		return nil, fmt.Errorf("dsmpm2: restore drain: %w", err)
	}
	// Fault layers come back before any node can be killed: the network kill
	// path requires the fault layer, and core.RestoreState re-enables
	// recovery with the captured state (preserving the hook installed here,
	// since hooks do not serialize).
	if ck.Net.Faults != nil {
		s.rt.EnableFaults(ck.Cursor.Plan.Seed)
	}
	if ck.Core.Recovery != nil {
		s.dsm.EnableRecovery(opts.OnRestart)
	}
	// Nodes dead at capture die again here, so the runtime and network tear
	// down their services and queues exactly as the original crash did;
	// the counters those kills perturb are stomped back by the restores.
	for n, ns := range ck.Runtime.Nodes {
		if ns.Dead {
			s.rt.KillNode(n)
		}
	}
	if err := s.dsm.RestoreState(ck.Core); err != nil {
		return nil, err
	}
	if err := s.rt.Network().RestoreState(ck.Net); err != nil {
		return nil, err
	}
	if err := s.rt.RestoreState(ck.Runtime); err != nil {
		return nil, err
	}
	if err := s.rt.Engine().Restore(ck.Kernel); err != nil {
		return nil, err
	}
	if ck.Cursor != nil {
		s.faultPlan = ck.Cursor.Plan
		s.cursor = s.rt.Engine().NewFaultCursor(ck.Cursor.Plan, s.applyFault)
		if err := s.cursor.SetPos(ck.Cursor.Next, ck.Cursor.Base); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// checkShape refuses a checkpoint that does not describe one machine before
// anything is built from it: every per-node list has the configured node
// count, so what Restore allocates stays proportional to the checkpoint's
// size; the fault layer, the recovery state and the fault plan come together,
// as InjectFaults leaves them, and dead nodes only with them; and the plan is
// one the machine can run.
func (ck *Checkpoint) checkShape() error {
	n := ck.Config.Nodes
	if n < 1 || len(ck.Runtime.Nodes) != n || len(ck.Core.Nodes) != n {
		return fmt.Errorf("dsmpm2: checkpoint of a %d-node config carries %d runtime and %d core node states",
			n, len(ck.Runtime.Nodes), len(ck.Core.Nodes))
	}
	faulty := ck.Net.Faults != nil
	plan := ck.Cursor != nil && ck.Cursor.Plan != nil
	if faulty && !plan {
		return fmt.Errorf("dsmpm2: restore: the checkpoint's fault layer has no fault plan")
	}
	dead := slices.ContainsFunc(ck.Runtime.Nodes, func(ns pm2.NodeRuntimeState) bool { return ns.Dead })
	if plan != faulty || (ck.Core.Recovery != nil) != faulty || dead && !faulty {
		return fmt.Errorf("dsmpm2: restore: a checkpoint carries the fault layer, the recovery state and the fault plan together (here %v, %v, %v), and dead nodes only with them",
			faulty, ck.Core.Recovery != nil, plan)
	}
	if !faulty {
		return nil
	}
	return checkPlan(ck.Cursor.Plan, n)
}

// envelope is the self-describing on-disk form of a checkpoint: a format
// version, the body, and its hash. The hash turns truncation or corruption
// into a clean decode error instead of a misrestore.
type envelope struct {
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	Body    json.RawMessage `json:"body"`
}

// Encode serializes the checkpoint into its versioned, integrity-checked
// wire form.
func (ck *Checkpoint) Encode() ([]byte, error) {
	body, err := json.Marshal(ck)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(body)
	return json.Marshal(envelope{
		Version: CheckpointVersion,
		SHA256:  hex.EncodeToString(sum[:]),
		Body:    body,
	})
}

// DecodeCheckpoint parses a checkpoint produced by Encode, rejecting unknown
// versions, truncated payloads and hash mismatches with descriptive errors
// (never a panic).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("dsmpm2: checkpoint envelope unreadable (truncated or not a checkpoint): %w", err)
	}
	if env.Version != CheckpointVersion {
		return nil, fmt.Errorf("dsmpm2: checkpoint format version %d not supported (this build reads version %d)", env.Version, CheckpointVersion)
	}
	if len(env.Body) == 0 {
		return nil, fmt.Errorf("dsmpm2: checkpoint envelope has no body")
	}
	sum := sha256.Sum256(env.Body)
	if got := hex.EncodeToString(sum[:]); got != env.SHA256 {
		return nil, fmt.Errorf("dsmpm2: checkpoint body hash mismatch (file corrupted or truncated): have %s, recorded %s", got, env.SHA256)
	}
	// A field this build does not know (a version-1 kernel_shards array
	// under the current header, say) means the bytes describe some other
	// machine: refused, not skipped.
	ck := new(Checkpoint)
	dec := json.NewDecoder(bytes.NewReader(env.Body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(ck); err != nil {
		return nil, fmt.Errorf("dsmpm2: checkpoint body unreadable: %w", err)
	}
	return ck, nil
}

// Save writes the checkpoint to a file in its Encode form.
func (ck *Checkpoint) Save(path string) error {
	data, err := ck.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCheckpoint reads a checkpoint file written by Save.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// RecordCheckpoint notes that node committed an application-level checkpoint
// covering work units up to and including unit; a later restart's OnRestart
// hook reads it back through LastCheckpoint to warm-start. No-op when
// recovery is off.
func (s *System) RecordCheckpoint(node, unit int) { s.dsm.RecordCheckpoint(node, unit) }

// LastCheckpoint reports the last work unit node committed a checkpoint for
// (-1 when none).
func (s *System) LastCheckpoint(node int) int { return s.dsm.LastCheckpoint(node) }

// AddRedoneUnits accumulates application-reported redone work units into the
// recovery stats.
func (s *System) AddRedoneUnits(n int) { s.dsm.AddRedoneUnits(n) }

// NoteWarmRestart counts a restart that resumed from a recorded checkpoint.
func (s *System) NoteWarmRestart() { s.dsm.NoteWarmRestart() }
