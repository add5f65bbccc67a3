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

// TestCheckpointRoundTripSweep is the subsystem's core property: a token
// taken at step k, resumed through its wire form (a replay checked against
// the recorded fingerprint) and run to the end, ends with the unbroken run's
// trace fingerprint and checksum, for every k in the whole run.
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
		// Round-trip the wire form too: a resume always goes through bytes.
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

// TestCheckpointRoundTripAdaptive sweeps the resume property over a run with
// the access profiler and home migration enabled, so tokens land inside
// profiler epochs (between the barriers that fold them), and the token must
// carry the switch that turns the profiler on.
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
// time. Every crash/restart gap spans a step boundary, so the sweep takes
// tokens with a dead node, a mid-plan cursor and a non-trivial checkpoint
// registry, all of which the replay must reach again.
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
// with a fault plan injected through the fault cursor: tokens are taken
// before the crash, while node 2 is dead, and after its restart, and every
// resumed run must play the rest of the plan bit-identically.
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

	// The plan is part of the token: one the system cannot run is refused
	// before anything is built, and a token stripped of its plan replays a
	// fault-free run, which misses the recorded fingerprint.
	cfg.FaultPlan = faultyPlan()
	ck, err := runSession(t, cfg, 3).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	plan := ck.Plan
	ck.Plan = dsmpm2.NewFaultPlan(plan.Seed).Crash(0, 99)
	if _, err := jacobi.ResumeSession(ck); err == nil || !strings.Contains(err.Error(), "names node 99") {
		t.Fatalf("resume with a plan crashing node 99: err = %v, want it refused", err)
	}
	ck.Plan = nil
	if _, err := jacobi.ResumeSession(ck); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("resume without the fault plan: err = %v, want a fingerprint mismatch", err)
	}

	// li_hudak does not recover from this plan: its run never ends. A token
	// edited to name it replays only up to the instant the token was taken
	// at, and stops there with an error.
	ck.Plan = plan
	ck.Config.Protocol = "li_hudak"
	if _, err := jacobi.ResumeSession(ck); err == nil || !strings.Contains(err.Error(), "past its bound") {
		t.Fatalf("resume of a token edited to loop: err = %v, want it stopped at its bound", err)
	}
}

// TestCheckpointDecodeErrors pins the failure modes of the wire format and
// of the token: unknown versions, truncation, corruption, and tokens that
// are sound on the wire but describe no session this build can replay must
// come back as descriptive errors from DecodeCheckpoint or ResumeSession,
// never a panic or a silent misresume.
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

	// Tokens re-enveloped under a valid hash, each wrong in one way.
	badPlan, err := json.Marshal(dsmpm2.NewFaultPlan(1).Crash(0, 99))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		version int
		edit    func(body map[string]json.RawMessage)
		want    string
	}{
		{"step -1", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["app"] = setField(t, body["app"], "step", "-1")
		}, "step -1"},
		{"step past the last", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["app"] = setField(t, body["app"], "step", fmt.Sprint(s.Steps()+1))
		}, fmt.Sprintf("step %d", s.Steps()+1)},
		{"unknown profile", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["config"] = setField(t, body["config"], "network", `"NoSuchNet"`)
		}, `unknown network profile "NoSuchNet"`},
		{"plan crashing node 99", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["plan"] = badPlan
		}, "names node 99"},
		{"hierarchical topology without clusters", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["config"] = setField(t, body["config"], "topology", `{"kind":"hier","intra":"BIP/Myrinet","inter":"TCP/Fast Ethernet"}`)
		}, "assigns 0 of 16 nodes"},
		{"version-5 header", 5, nil, "format version 5 not supported"},
		// What a token sizes is refused before anything is built from it.
		{"config of 1<<31 nodes", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["config"] = setField(t, body["config"], "nodes", "2147483648")
		}, "2147483648-node system"},
		{"n of 1<<40", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["app"] = setField(t, body["app"], "n", "1099511627776")
		}, "N=1099511627776"},
		{"1<<40 iterations", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["app"] = setField(t, body["app"], "iterations", "1099511627776")
		}, "1099511627776-iteration"},
		{"negative cell cost", dsmpm2.CheckpointVersion, func(body map[string]json.RawMessage) {
			body["app"] = setField(t, body["app"], "cell_cost", "-1")
		}, "cell cost -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := dsmpm2.DecodeCheckpoint(reEnvelope(t, data, tc.version, tc.edit))
			if err == nil {
				_, err = jacobi.ResumeSession(ck)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("got err %v, want one mentioning %q", err, tc.want)
			}
		})
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

// TestCheckpointVersion1Refused: versions 1 to 5 were full-state snapshots,
// so an older blob is refused by its header, even one whose body and hash
// are otherwise exactly what this build writes; and a version-5 body, with
// its kernel, core, network and runtime sections, is refused under the
// current header too, rather than half-read.
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
	for version := 1; version < dsmpm2.CheckpointVersion; version++ {
		_, err = dsmpm2.DecodeCheckpoint(reEnvelope(t, data, version, nil))
		want := fmt.Sprintf("format version %d not supported", version)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d checkpoint: got err %v, want the format-version refusal", version, err)
		}
	}
	withKernel := func(body map[string]json.RawMessage) {
		body["kernel"] = json.RawMessage(`{"now":0,"seq":0,"next_id":0,"nevents":0,"seed":7,"rng_draws":0}`)
	}
	_, err = dsmpm2.DecodeCheckpoint(reEnvelope(t, data, dsmpm2.CheckpointVersion, withKernel))
	if err == nil || !strings.Contains(err.Error(), `unknown field "kernel"`) {
		t.Fatalf("version-5 kernel section under the current header: got err %v, want it refused", err)
	}
}

// TestResumeRejectsTamperedToken: a token re-enveloped under a valid hash
// but naming a different seed or step than the run it was taken from is
// refused by ResumeSession with a fingerprint mismatch. The seed case holds
// although nothing in this session draws from the engine's random source, so
// the replayed trace itself does not change: the token's fingerprint binds
// the trace to the recipe.
func TestResumeRejectsTamperedToken(t *testing.T) {
	const k = 3
	ck, err := runSession(t, sessionConfig(), k).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(body map[string]json.RawMessage)
		want string
	}{
		{"untouched", nil, ""},
		{"seed", func(body map[string]json.RawMessage) {
			body["config"] = setField(t, body["config"], "seed", "8")
		}, "fingerprint mismatch"},
		{"step", func(body map[string]json.RawMessage) {
			body["app"] = setField(t, body["app"], "step", fmt.Sprint(k-1))
		}, "fingerprint mismatch"},
	} {
		ck, err := dsmpm2.DecodeCheckpoint(reEnvelope(t, data, dsmpm2.CheckpointVersion, tc.edit))
		if err != nil {
			t.Fatalf("%s: re-enveloped token did not decode: %v", tc.name, err)
		}
		_, err = jacobi.ResumeSession(ck)
		if tc.want == "" && err != nil {
			t.Errorf("%s: ResumeSession: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: ResumeSession = %v, want a %s", tc.name, err, tc.want)
		}
	}
}
