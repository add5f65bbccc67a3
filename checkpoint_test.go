package dsmpm2_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/core"
)

// sessionConfig is the 16-node workload the round-trip sweep runs: small
// enough to re-run once per step, big enough that every node owns rows and
// every step moves real traffic.
func sessionConfig() jacobi.Config {
	return jacobi.Config{
		N: 16, Iterations: 3, Nodes: 16,
		Network:  dsmpm2.BIPMyrinet,
		Protocol: "hbrc_mw",
		Seed:     7,
	}
}

// runSession builds a session, runs steps, and returns it.
func runSession(t *testing.T, cfg jacobi.Config, steps int) *jacobi.Session {
	t.Helper()
	s, err := jacobi.NewSession(cfg)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	for i := 0; i < steps; i++ {
		if err := s.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return s
}

// finishFingerprint drives a session to its end and returns the trace
// fingerprint plus the checksum.
func finishFingerprint(t *testing.T, s *jacobi.Session) (string, float64) {
	t.Helper()
	if err := s.RunToEnd(); err != nil {
		t.Fatalf("RunToEnd: %v", err)
	}
	fp := s.System().Fingerprint()
	res, err := s.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return fp, res.Checksum
}

// TestCheckpointRoundTripSweep is the subsystem's core property: snapshot at
// step k, restore into a fresh system, run to the end — the trace
// fingerprint must be bit-identical to the unbroken run's, for every k in
// the whole run.
func TestCheckpointRoundTripSweep(t *testing.T) {
	cfg := sessionConfig()
	ref := runSession(t, cfg, 0)
	refFP, refSum := finishFingerprint(t, ref)
	want := jacobi.SolveSerial(cfg.N, cfg.Iterations)
	if refSum != want {
		t.Fatalf("reference checksum %v, serial %v", refSum, want)
	}

	steps := ref.Steps()
	for k := 0; k <= steps; k++ {
		s := runSession(t, cfg, k)
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("k=%d: checkpoint: %v", k, err)
		}
		// Round-trip the wire form too: restore always goes through bytes.
		data, err := ck.Encode()
		if err != nil {
			t.Fatalf("k=%d: encode: %v", k, err)
		}
		ck2, err := dsmpm2.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		resumed, err := jacobi.ResumeSession(ck2)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		fp, sum := finishFingerprint(t, resumed)
		if fp != refFP {
			t.Fatalf("k=%d: restored fingerprint %s, unbroken run %s", k, fp, refFP)
		}
		if sum != refSum {
			t.Fatalf("k=%d: restored checksum %v, unbroken run %v", k, sum, refSum)
		}
	}
}

// TestCheckpointRoundTripAdaptive sweeps the restore property over a run
// with the access profiler and home migration enabled, so checkpoints land
// inside profiler epochs (between the barriers that fold them) and the
// profiler's evidence state must round-trip exactly.
func TestCheckpointRoundTripAdaptive(t *testing.T) {
	cfg := sessionConfig()
	cfg.MisplaceHomes = true
	cfg.AdaptiveHomes = true
	ref := runSession(t, cfg, 0)
	refFP, refSum := finishFingerprint(t, ref)

	for k := 0; k <= ref.Steps(); k++ {
		s := runSession(t, cfg, k)
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("k=%d: checkpoint: %v", k, err)
		}
		resumed, err := jacobi.ResumeSession(ck)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		fp, sum := finishFingerprint(t, resumed)
		if fp != refFP {
			t.Fatalf("k=%d: restored fingerprint %s, unbroken run %s", k, fp, refFP)
		}
		if sum != refSum {
			t.Fatalf("k=%d: restored checksum %v, unbroken run %v", k, sum, refSum)
		}
	}
}

// faultyPlan is the bench's faulty-jacobi scenario: node 2 fail-stops three
// times, once per work unit (the first mid-compute, the later two parked
// across step boundaries), warm-resuming from its recorded checkpoints each
// time. Every crash/restart gap spans a safe point, so the sweep checkpoints
// runs with a dead node, a mid-plan cursor, and a non-trivial checkpoint
// registry — all of which must survive the wire round-trip.
func faultyPlan() *dsmpm2.FaultPlan {
	return dsmpm2.NewFaultPlan(11).
		Crash(dsmpm2.Time(400*dsmpm2.Microsecond), 2).
		Restart(dsmpm2.Time(20*dsmpm2.Millisecond), 2).
		Crash(dsmpm2.Time(21*dsmpm2.Millisecond), 2).
		Restart(dsmpm2.Time(40*dsmpm2.Millisecond), 2).
		Crash(dsmpm2.Time(41*dsmpm2.Millisecond), 2).
		Restart(dsmpm2.Time(60*dsmpm2.Millisecond), 2)
}

// TestCheckpointMidFaultPlan sweeps the round-trip property across a run
// with a fault plan injected through the fault cursor: checkpoints land
// before the crash, while node 2 is dead, and after its restart, and every
// restored run must replay the rest of the plan bit-identically.
func TestCheckpointMidFaultPlan(t *testing.T) {
	cfg := sessionConfig()
	cfg.FaultPlan = faultyPlan()
	ref := runSession(t, cfg, 0)
	refFP, refSum := finishFingerprint(t, ref)
	if ref.System().RecoveryStats().Crashes == 0 {
		t.Fatalf("fault plan applied no crash; the sweep would not cover a mid-plan point")
	}
	want := jacobi.SolveSerial(cfg.N, cfg.Iterations)
	if refSum != want {
		t.Fatalf("faulty reference checksum %v, serial %v", refSum, want)
	}

	sawDead := false
	for k := 0; k <= ref.Steps(); k++ {
		cfgK := sessionConfig()
		cfgK.FaultPlan = faultyPlan()
		s := runSession(t, cfgK, k)
		if s.System().NodeDead(2) {
			sawDead = true
		}
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatalf("k=%d: checkpoint: %v", k, err)
		}
		data, err := ck.Encode()
		if err != nil {
			t.Fatalf("k=%d: encode: %v", k, err)
		}
		ck2, err := dsmpm2.DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		resumed, err := jacobi.ResumeSession(ck2)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		fp, sum := finishFingerprint(t, resumed)
		if fp != refFP {
			t.Fatalf("k=%d: restored fingerprint %s, unbroken run %s", k, fp, refFP)
		}
		if sum != refSum {
			t.Fatalf("k=%d: restored checksum %v, unbroken run %v", k, sum, refSum)
		}
	}
	if !sawDead {
		t.Fatalf("no sweep point caught node 2 dead; widen the plan window")
	}

	// The fault layer comes only with InjectFaults, which leaves a cursor: a
	// checkpoint with the layer but no plan is refused, not restored with a
	// made-up loss seed.
	cfg.FaultPlan = faultyPlan()
	ck, err := runSession(t, cfg, 1).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	plan := ck.Cursor.Plan
	ck.Cursor.Plan = dsmpm2.NewFaultPlan(plan.Seed).Crash(0, 99)
	if _, err := dsmpm2.Restore(ck, dsmpm2.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), "names node 99") {
		t.Fatalf("restore with a plan crashing node 99: err = %v, want it refused", err)
	}
	ck.Cursor = nil
	if _, err := dsmpm2.Restore(ck, dsmpm2.RestoreOptions{}); err == nil || !strings.Contains(err.Error(), "no fault plan") {
		t.Fatalf("restore without the fault plan: err = %v, want it refused", err)
	}
}

// TestCheckpointDecodeErrors pins the failure modes of the wire format:
// unknown versions, truncation and corruption must come back as descriptive
// errors, never a panic or a silent misrestore.
func TestCheckpointDecodeErrors(t *testing.T) {
	s := runSession(t, sessionConfig(), 2)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	data, err := ck.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	if _, err := dsmpm2.DecodeCheckpoint(data[:len(data)/2]); err == nil {
		t.Fatalf("truncated envelope decoded without error")
	}
	if _, err := dsmpm2.DecodeCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Fatalf("garbage decoded without error")
	}

	bad := strings.Replace(string(data), fmt.Sprintf(`"version":%d`, dsmpm2.CheckpointVersion), `"version":99`, 1)
	if bad == string(data) {
		t.Fatalf("version marker not found in envelope")
	}
	if _, err := dsmpm2.DecodeCheckpoint([]byte(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version: got err %v, want version error", err)
	}

	// Flip one byte inside the body: the recorded hash must catch it.
	corrupt := []byte(strings.Replace(string(data), `"nodes":16`, `"nodes":17`, 1))
	if string(corrupt) == string(data) {
		t.Fatalf("corruption marker not found in envelope")
	}
	if _, err := dsmpm2.DecodeCheckpoint(corrupt); err == nil || !strings.Contains(err.Error(), "hash") {
		t.Fatalf("corrupted body: got err %v, want hash mismatch", err)
	}
}

// reEnvelope rewraps a checkpoint's body under the given format version,
// after edit (if any) has changed the body's top-level fields, with the hash
// recomputed — an envelope that is sound in every way but the one under test.
func reEnvelope(t *testing.T, data []byte, version int, edit func(body map[string]json.RawMessage)) []byte {
	t.Helper()
	var env struct {
		Version int             `json:"version"`
		SHA256  string          `json:"sha256"`
		Body    json.RawMessage `json:"body"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("envelope: %v", err)
	}
	if edit != nil {
		var body map[string]json.RawMessage
		if err := json.Unmarshal(env.Body, &body); err != nil {
			t.Fatalf("body: %v", err)
		}
		edit(body)
		var err error
		if env.Body, err = json.Marshal(body); err != nil {
			t.Fatalf("body: %v", err)
		}
	}
	sum := sha256.Sum256(env.Body)
	env.Version, env.SHA256 = version, hex.EncodeToString(sum[:])
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatalf("envelope: %v", err)
	}
	return out
}

// setField returns the JSON object raw with key set to the JSON value v.
func setField(t *testing.T, raw json.RawMessage, key, v string) json.RawMessage {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatal(err)
	}
	obj[key] = json.RawMessage(v)
	out, err := json.Marshal(obj)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCheckpointVersion1Refused: version 1 carried per-shard state under the
// same keys (net.shards[], kernel_shards, shard_next, config.shards),
// version 2 the communication-path selector (core.batch and its config
// flag), version 3 per-node NIC clocks (net.nic_free) and version 4 the
// profiler's hysteresis (core.profiler.stability), so an older blob is
// refused by its header — even
// one whose body and hash are otherwise exactly what this build writes —
// rather than half-read or failed on an unknown field.
func TestCheckpointVersion1Refused(t *testing.T) {
	s := runSession(t, sessionConfig(), 2)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	data, err := ck.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := dsmpm2.DecodeCheckpoint(reEnvelope(t, data, dsmpm2.CheckpointVersion, nil)); err != nil {
		t.Fatalf("re-enveloped current-version checkpoint did not decode: %v", err)
	}
	withBatch := func(body map[string]json.RawMessage) {
		body["core"] = json.RawMessage(`{"batch":true,` + string(body["core"][1:]))
	}
	withNICClocks := func(body map[string]json.RawMessage) {
		body["net"] = json.RawMessage(`{"nic_free":[0,0],` + string(body["net"][1:]))
	}
	withStability := func(body map[string]json.RawMessage) {
		body["core"] = json.RawMessage(`{"profiler":{"migrate":true,"stability":2,"epoch":0},` + string(body["core"][1:]))
	}
	for _, old := range []struct {
		version int
		edit    func(body map[string]json.RawMessage)
	}{{1, nil}, {2, withBatch}, {3, withNICClocks}, {4, withStability}} {
		_, err = dsmpm2.DecodeCheckpoint(reEnvelope(t, data, old.version, old.edit))
		want := fmt.Sprintf("format version %d not supported", old.version)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d checkpoint: got err %v, want the format-version refusal", old.version, err)
		}
	}
}

// TestCheckpointRejectsUnsafePoint verifies capture refuses a system that is
// not at a safe point, with an error instead of a corrupt snapshot.
func TestCheckpointRejectsUnsafePoint(t *testing.T) {
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 2, Seed: 3})
	lk := sys.NewLock(0)
	done := make(chan struct{})
	sys.Spawn(0, "holder", func(t *dsmpm2.Thread) {
		t.Acquire(lk)
		t.Release(lk)
		close(done)
	})
	// Before Run: spawn wakes are queued, so the engine is not quiesced.
	if _, err := sys.Checkpoint(nil); err == nil {
		t.Fatalf("checkpoint with queued events succeeded")
	}
	if err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	<-done
	if _, err := sys.Checkpoint(nil); err != nil {
		t.Fatalf("checkpoint at a drained safe point failed: %v", err)
	}
}

// TestRestoreRejectsHostileCoreState feeds Restore checkpoints whose envelope
// is sound — re-encoded, so version and hash check out — but whose frames,
// entries, page list or synchronisation managers were edited. Each must come
// back as a descriptive error (a bad frame, entry or page before any node's
// Space is touched): never a panic, a silently truncated frame, a page table
// grown to an absurd page number, or a manager homed off the machine.
func TestRestoreRejectsHostileCoreState(t *testing.T) {
	s := runSession(t, sessionConfig(), 2)
	good, err := s.Checkpoint()
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	node := -1
	for n, ncs := range good.Core.Nodes {
		if len(ncs.Frames) > 0 && len(ncs.Entries) > 0 {
			node = n
			break
		}
	}
	if node < 0 {
		t.Fatal("checkpoint holds no node with frames and entries to corrupt")
	}
	const unallocated = 1<<18 + 1<<17 // mid-slice page of node 0, far past anything it allocated
	cases := []struct {
		name    string
		corrupt func(cs *core.CoreState)
		// body, when set, edits the encoded body's top-level fields instead
		// (for what the Checkpoint struct can no longer express).
		body func(body map[string]json.RawMessage)
		want string
	}{
		{"frame on an unallocated page", func(cs *core.CoreState) { cs.Nodes[node].Frames[0].Page = unallocated }, nil, "unallocated page"},
		{"frame on an absurd page", func(cs *core.CoreState) { cs.Nodes[node].Frames[0].Page = 1 << 60 }, nil, "unallocated page"},
		{"short frame", func(cs *core.CoreState) {
			f := &cs.Nodes[node].Frames[0]
			f.Data = f.Data[:len(f.Data)-1]
		}, nil, "byte frame"},
		{"long frame", func(cs *core.CoreState) {
			f := &cs.Nodes[node].Frames[0]
			f.Data = append(f.Data[:len(f.Data):len(f.Data)], 0)
		}, nil, "byte frame"},
		{"empty frame", func(cs *core.CoreState) { cs.Nodes[node].Frames[0].Data = nil }, nil, "byte frame"},
		{"access value 3", func(cs *core.CoreState) { cs.Nodes[node].Frames[0].Access = 3 }, nil, "access value 3"},
		{"access value 255", func(cs *core.CoreState) { cs.Nodes[node].Frames[0].Access = 255 }, nil, "access value 255"},
		{"entry on an unallocated page", func(cs *core.CoreState) { cs.Nodes[node].Entries[0].Page = unallocated }, nil, "unallocated page"},
		{"absurd page listed as allocated", func(cs *core.CoreState) {
			cs.Pages[0].Page = 1 << 60
			cs.Nodes[node].Frames[0].Page = 1 << 60
		}, nil, "outside every node's"},
		{"static-segment page listed as allocated", func(cs *core.CoreState) { cs.Pages[0].Page = 1 }, nil, "outside every node's"},
		{"page homed on a node that does not exist", func(cs *core.CoreState) { cs.Pages[0].Home = len(cs.Nodes) }, nil, "homes page"},
		// An entry's node ids are range-checked: a copyset member sizes the
		// set's bitmap, so 1<<40 would ask for 2^34 words.
		{"copyset member -1", func(cs *core.CoreState) { cs.Nodes[node].Entries[0].Copyset = []int{0, -1} }, nil, "outside [0, "},
		{"copyset member 1<<40", func(cs *core.CoreState) { cs.Nodes[node].Entries[0].Copyset = []int{1 << 40} }, nil, "outside [0, "},
		{"entry homed on node 99", func(cs *core.CoreState) { cs.Nodes[node].Entries[0].Home = 99 }, nil, "home 99"},
		{"probable owner past the last node", func(cs *core.CoreState) { cs.Nodes[node].Entries[0].ProbOwner = len(cs.Nodes) }, nil, "outside [0, "},
		// The synchronisation managers are messaged at their homes and
		// found by id: a home off the machine, an id out of place, a
		// barrier nobody can complete or a condition on a lock that does
		// not exist is refused, naming the record and the node.
		{"barrier homed on node 99", func(cs *core.CoreState) { cs.Barriers[0].Home = 99 }, nil, "barrier 0 in slot 0 homed on node 99"},
		{"barrier for no arrivals", func(cs *core.CoreState) { cs.Barriers[0].N = 0 }, nil, "for 0 arrivals"},
		{"barrier arrival from node -1", func(cs *core.CoreState) { cs.Barriers[0].Arrived = []int{0, -1} }, nil, "from nodes [0 -1]"},
		{"barrier id out of place", func(cs *core.CoreState) { cs.Barriers[0].ID = 3 }, nil, "barrier 3 in slot 0"},
		{"lock homed on node 99", func(cs *core.CoreState) { cs.Locks = []core.LockSnap{{ID: 0, Home: 99}} }, nil, "lock 0 in slot 0 homed on node 99"},
		{"lock id out of place", func(cs *core.CoreState) { cs.Locks = []core.LockSnap{{ID: 5}} }, nil, "lock 5 in slot 0"},
		{"condition homed on node 99", func(cs *core.CoreState) {
			cs.Locks, cs.Conds = []core.LockSnap{{ID: 0}}, []core.CondSnap{{ID: 0, Lock: 0, Home: 99}}
		}, nil, "condition 0 in slot 0 homed on node 99"},
		{"condition on a lock never restored", func(cs *core.CoreState) {
			cs.Locks, cs.Conds = nil, []core.CondSnap{{ID: 0, Lock: 0}}
		}, nil, "on lock 0 of 0"},
		{"condition id out of place", func(cs *core.CoreState) {
			cs.Locks, cs.Conds = []core.LockSnap{{ID: 0}}, []core.CondSnap{{ID: 1, Lock: 0}}
		}, nil, "condition 1 in slot 0"},
		{"object area homed on node 99", func(cs *core.CoreState) {
			cs.ObjAreas = []core.ObjAreaSnap{{Home: 99, Proto: "hbrc_mw"}}
		}, nil, "object area homed on node 99"},
		// A current-version body still carrying version 1's per-shard kernel
		// array is refused at decode (unknown fields are not skipped).
		{"version-1 kernel_shards array", nil, func(body map[string]json.RawMessage) {
			body["kernel_shards"] = json.RawMessage("[" + string(body["kernel"]) + "]")
		}, `unknown field "kernel_shards"`},
		// Likewise a current-version body still carrying version 3's
		// partition policy.
		{"version-3 partition policy", nil, func(body map[string]json.RawMessage) {
			body["partition"] = json.RawMessage("1")
		}, `unknown field "partition"`},
		// A link clock names both endpoints; one past the last node is refused.
		{"link clock to node 99", nil, func(body map[string]json.RawMessage) {
			body["net"] = json.RawMessage(`{"link_free":[{"from":0,"to":99,"free":1}],` + string(body["net"][1:]))
		}, "link 0->99"},
		// What Restore builds stays proportional to the checkpoint: a config
		// claiming more nodes than it carries states for is refused before
		// New sizes a machine by it, and a PRNG position past the replay
		// bound before the kernel burns its way there.
		{"config of 1<<31 nodes", nil, func(body map[string]json.RawMessage) {
			body["config"] = setField(t, body["config"], "nodes", "2147483648")
		}, "node states"},
		{"kernel PRNG 1<<40 draws in", nil, func(body map[string]json.RawMessage) {
			body["kernel"] = setField(t, body["kernel"], "rng_draws", "1099511627776")
		}, "past the"},
		// A dead node comes only with the fault layer that killed it.
		{"dead node without a fault layer", nil, func(body map[string]json.RawMessage) {
			body["runtime"] = json.RawMessage(strings.Replace(string(body["runtime"]), `"nodes":[{`, `"nodes":[{"dead":true,`, 1))
		}, "dead nodes only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := good.Encode()
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			ck, err := dsmpm2.DecodeCheckpoint(data) // a private deep copy
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if tc.body != nil {
				data = reEnvelope(t, data, dsmpm2.CheckpointVersion, tc.body)
			} else {
				tc.corrupt(ck.Core)
				if data, err = ck.Encode(); err != nil { // re-hash the corrupted body
					t.Fatalf("re-encode: %v", err)
				}
			}
			var sys *dsmpm2.System
			if ck, err = dsmpm2.DecodeCheckpoint(data); err == nil {
				sys, err = dsmpm2.Restore(ck, dsmpm2.RestoreOptions{})
			} else if tc.body == nil {
				t.Fatalf("re-hashed checkpoint did not decode: %v", err)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Restore = %v, %v; want an error mentioning %q", sys, err, tc.want)
			}
		})
	}
	// The uncorrupted checkpoint still restores after the same round trip.
	if _, err := jacobi.ResumeSession(good); err != nil {
		t.Fatalf("pristine checkpoint no longer restores: %v", err)
	}
}
