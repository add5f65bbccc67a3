package dsmpm2

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"dsmpm2/internal/madeleine"
)

// A Checkpoint is a resume token: it records how to reach a step of a
// deterministic run, not the state at that step. A run is a pure function of
// its config, its seed and its fault plan, so the token carries those, the
// application's own description of how far it got, and the run's fingerprint
// at capture. A resumer (jacobi.ResumeSession) rebuilds the system from the
// config, replays the recorded steps and refuses the token unless the replay
// reaches the recorded fingerprint: a resumed run is the unbroken run,
// checked, not a restored copy of it.
//
// Two neighbours share the name but not the token: a restarted node's
// OnRestart hook warm-starts from the last work unit it recorded (the
// jacobi session keeps that registry), and divergence bisection
// (`dsmbench -exp bisect`) binary-searches the first step whose fingerprint
// diverges from a golden ledger.

// CheckpointVersion is the current token format version. Decoders reject
// other versions with an error (never a panic), so stale files fail loudly.
// Versions 1 to 5 were full-state snapshots (the kernel's clock and PRNG
// position, every node's pages and page table, the synchronization managers,
// the network's clocks, the runtime's counters and the fault cursor);
// version 6 is the resume token.
const CheckpointVersion = 6

// TopologyState serializes a hierarchical topology by profile names (a
// uniform one is ConfigState.Network). Only those two round-trip — a
// LinkMatrix holds arbitrary profiles with no registry to resolve them from,
// and is rejected at capture.
type TopologyState struct {
	Kind      string `json:"kind"` // "hier"
	ClusterOf []int  `json:"cluster_of,omitempty"`
	Intra     string `json:"intra,omitempty"`
	Inter     string `json:"inter,omitempty"`
}

// ConfigState is the serializable form of Config.
type ConfigState struct {
	Nodes          int            `json:"nodes"`
	Network        string         `json:"network,omitempty"`
	Topology       *TopologyState `json:"topology,omitempty"`
	LinkContention bool           `json:"link_contention,omitempty"`
	AdaptiveHomes  bool           `json:"adaptive_homes,omitempty"`
	Protocol       string         `json:"protocol"`
	Seed           int64          `json:"seed"`
}

// Checkpoint is a resume token. Build one with System.Checkpoint, persist it
// with Save/Encode, and resume it with the application's resumer (for
// example jacobi.ResumeSession), which replays the run up to the recorded
// fingerprint.
type Checkpoint struct {
	Config ConfigState     `json:"config"`
	Plan   *FaultPlan      `json:"plan,omitempty"`
	App    json.RawMessage `json:"app,omitempty"`
	// At is the virtual time of the capture: a replay of the recorded run
	// fires nothing later (see Replay).
	At Time `json:"at"`
	// Fingerprint is the run's trace fingerprint at capture
	// (System.Fingerprint) bound to the token: a digest of it with every
	// other field. Replay recomputes it on the replayed system, so an edit
	// to any field misses it, even one the trace does not show (the seed of
	// a run that never draws from the engine's random source, say).
	Fingerprint string `json:"fingerprint"`
}

// Fingerprint hashes the system's observable trace — final clock, every
// recorded fault timing, the DSM stats — into a hex digest. Two runs of the
// same workload under the same seed produce identical fingerprints, and a
// checkpoint binds it to the token (see Checkpoint.Fingerprint).
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
		LinkContention: s.cfg.LinkContention,
		AdaptiveHomes:  s.cfg.AdaptiveHomes,
		Protocol:       s.cfg.Protocol,
		Seed:           s.cfg.Seed,
	}
	profName := func(p *NetworkProfile) (string, error) {
		if madeleine.ByName(p.Name) == nil {
			return "", fmt.Errorf("dsmpm2: network profile %q is not in the registry; checkpoints only serialize registered profiles", p.Name)
		}
		return p.Name, nil
	}
	switch topo := s.cfg.Network.(type) {
	case *NetworkProfile:
		name, err := profName(topo)
		if err != nil {
			return ConfigState{}, err
		}
		cs.Network = name
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
		return ConfigState{}, fmt.Errorf("dsmpm2: topology %s is not checkpoint-serializable (only uniform and hierarchical topologies round-trip)", topo)
	}
	return cs, nil
}

// toConfig rebuilds a Config from its serialized form.
func (cs ConfigState) toConfig() (Config, error) {
	cfg := Config{
		Nodes:          cs.Nodes,
		LinkContention: cs.LinkContention,
		AdaptiveHomes:  cs.AdaptiveHomes,
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
		if ts.Kind != "hier" {
			return Config{}, fmt.Errorf("dsmpm2: checkpoint has unknown topology kind %q", ts.Kind)
		}
		intra, err := resolve(ts.Intra)
		if err != nil {
			return Config{}, err
		}
		inter, err := resolve(ts.Inter)
		if err != nil {
			return Config{}, err
		}
		if len(ts.ClusterOf) != cs.Nodes {
			return Config{}, fmt.Errorf("dsmpm2: checkpoint's hierarchical topology assigns %d of %d nodes to clusters", len(ts.ClusterOf), cs.Nodes)
		}
		cfg.Network = madeleine.NewHierarchical(ts.ClusterOf, intra, inter)
	} else {
		p, err := resolve(cs.Network)
		if err != nil {
			return Config{}, err
		}
		cfg.Network = p
	}
	return cfg, nil
}

// Checkpoint takes a resume token at the current point of the run. app is
// the application layer's description of how far it got (for a session, its
// config and step count), carried opaquely. It fails on a topology that does
// not serialize by profile names.
func (s *System) Checkpoint(app []byte) (*Checkpoint, error) {
	cfgState, err := s.configState()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{Config: cfgState, Plan: s.faultPlan, App: append([]byte(nil), app...), At: s.Now()}
	if ck.Fingerprint, err = ck.digest(s); err != nil {
		return nil, err
	}
	return ck, nil
}

// digest hashes the token's fields but its fingerprint with sys's trace
// fingerprint.
func (ck *Checkpoint) digest(sys *System) (string, error) {
	recipe, err := json.Marshal(Checkpoint{Config: ck.Config, Plan: ck.Plan, App: ck.App, At: ck.At})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append(recipe, sys.Fingerprint()...))
	return hex.EncodeToString(sum[:]), nil
}

// Replay brings sys, built from SystemConfig as the recorded run was, back
// to the point the token was taken at: it calls step steps times, and
// returns an error unless the replay ends at the recorded fingerprint. The
// run is bounded at the recorded instant (Engine.Bound: no event past it
// fires), so a replay that leaves the recorded run (a tampered or hostile
// token) stops there with an error instead of running on.
func (ck *Checkpoint) Replay(sys *System, steps int, step func() error) error {
	lift := sys.rt.Engine().Bound(ck.At)
	defer lift()
	for i := 0; i < steps; i++ {
		if err := step(); err != nil {
			return fmt.Errorf("dsmpm2: replaying step %d: %w", i, err)
		}
	}
	got, err := ck.digest(sys)
	if err != nil {
		return err
	}
	if got != ck.Fingerprint {
		return fmt.Errorf("dsmpm2: fingerprint mismatch: the replay reached %s, the checkpoint recorded %s", got, ck.Fingerprint)
	}
	return nil
}

// maxCheckpointNodes bounds the machine a token may name. A token is input
// from outside the program, and the system built from it is sized by its
// node count before any fingerprint can be checked, so a larger count is
// refused rather than allocated.
const maxCheckpointNodes = 4096

// SystemConfig rebuilds the Config the token's system was built from. It
// refuses a profile or topology kind this build does not know, a node count
// outside 1 to maxCheckpointNodes, and a fault plan that system could not
// run, before anything is built.
func (ck *Checkpoint) SystemConfig() (Config, error) {
	if n := ck.Config.Nodes; n < 1 || n > maxCheckpointNodes {
		return Config{}, fmt.Errorf("dsmpm2: checkpoint of a %d-node system (tokens name 1 to %d nodes)", n, maxCheckpointNodes)
	}
	cfg, err := ck.Config.toConfig()
	if err != nil {
		return Config{}, err
	}
	if ck.Plan != nil {
		if err := checkPlan(ck.Plan, cfg.Nodes); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// envelope is the self-describing on-disk form of a checkpoint: a format
// version, the body, and its hash. The hash turns truncation or corruption
// into a clean decode error.
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
	// A field this build does not know (a version-5 kernel section under
	// the current header, say) means the bytes are some other format:
	// refused, not skipped.
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
