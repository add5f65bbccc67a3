package dsmpm2_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
)

// fuzzSeedTokens returns the bodies of resume tokens taken at several steps
// of four small sessions: a plain one, one on a two-cluster topology, one
// with adaptive homes (tokens inside profiler epochs), and one
// mid-fault-plan (a token with node 2 dead after step 1, and two after its
// restart).
func fuzzSeedTokens(f testing.TB) [][]byte {
	f.Helper()
	plain := jacobi.Config{N: 8, Iterations: 2, Nodes: 4, Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: 3}
	adaptive := plain
	adaptive.MisplaceHomes, adaptive.AdaptiveHomes = true, true
	hier := plain
	hier.Network = dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2), dsmpm2.BIPMyrinet, dsmpm2.TCPFastEthernet)
	faulty := plain
	faulty.FaultPlan = dsmpm2.NewFaultPlan(5).
		Crash(dsmpm2.Time(dsmpm2.Millisecond), 2).
		Restart(dsmpm2.Time(20*dsmpm2.Millisecond), 2)
	var bodies [][]byte
	sawDead := false
	for _, c := range []struct {
		cfg   jacobi.Config
		steps []int
	}{{plain, []int{0, 3}}, {hier, []int{2}}, {adaptive, []int{1, 3}}, {faulty, []int{1, 2, 3}}} {
		for _, k := range c.steps {
			s, err := jacobi.NewSession(c.cfg)
			if err != nil {
				f.Fatal(err)
			}
			for s.StepsDone() < k {
				if err := s.Step(); err != nil {
					f.Fatal(err)
				}
			}
			sawDead = sawDead || s.System().NodeDead(2)
			ck, err := s.Checkpoint()
			if err != nil {
				f.Fatal(err)
			}
			body, err := json.Marshal(ck)
			if err != nil {
				f.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	if !sawDead {
		f.Fatal("no seed token was taken with node 2 dead")
	}
	return bodies
}

// number matches the JSON numbers a body's fields hold.
var number = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?`)

// FuzzCheckpointBody: a token body of arbitrary bytes, under a valid version
// and hash so it gets past the envelope, is refused by DecodeCheckpoint or
// ResumeSession with an error, or replays and then runs to its end; never a
// panic. A fault-free, warm-restart token that runs to its end computes the
// serial oracle's answer. Besides the fuzzer's byte edits, each input sets
// one number of the body (the at-th, cyclically) to v, which reaches the
// range checks much faster than byte edits that mostly break the JSON.
//
// A token's replay costs what its run cost, so only tokens within a small
// budget (at most 4 nodes, N 16, 3 iterations and one virtual second) are
// replayed; larger ones are decoded and validated. The replay is bounded at
// the token's instant, so a token whose recipe was edited into a run that
// never ends (a protocol that loops under its fault plan, a link that never
// heals) stops there with an error.
func FuzzCheckpointBody(f *testing.F) {
	for _, body := range fuzzSeedTokens(f) {
		f.Add(body, uint16(0), int64(0))
	}
	f.Fuzz(func(t *testing.T, body []byte, at uint16, v int64) {
		if locs := number.FindAllIndex(body, -1); len(locs) > 0 {
			l := locs[int(at)%len(locs)]
			body = slices.Concat(body[:l[0]], strconv.AppendInt(nil, v, 10), body[l[1]:])
		}
		// The envelope carries its body compacted, so the hash is of that.
		var compact bytes.Buffer
		if json.Compact(&compact, body) != nil {
			return // not JSON: the envelope cannot even carry it
		}
		sum := sha256.Sum256(compact.Bytes())
		data, err := json.Marshal(struct {
			Version int             `json:"version"`
			SHA256  string          `json:"sha256"`
			Body    json.RawMessage `json:"body"`
		}{dsmpm2.CheckpointVersion, hex.EncodeToString(sum[:]), compact.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		ck, err := dsmpm2.DecodeCheckpoint(data)
		if err != nil {
			return
		}
		sys, err := ck.SystemConfig()
		if err != nil {
			return
		}
		var size struct {
			N          int  `json:"n"`
			Iterations int  `json:"iterations"`
			Cold       bool `json:"cold"`
		}
		if json.Unmarshal(ck.App, &size) != nil || sys.Nodes > 4 || size.N > 16 || size.Iterations > 3 || ck.At > dsmpm2.Time(dsmpm2.Second) {
			return
		}
		s, err := jacobi.ResumeSession(ck)
		if err != nil {
			return
		}
		if err := s.RunToEnd(); err != nil {
			t.Fatalf("an accepted token did not run to its end: %v", err)
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if want := jacobi.SolveSerial(size.N, size.Iterations); ck.Plan == nil && !size.Cold && res.Checksum != want {
			t.Fatalf("an accepted fault-free token ran to checksum %v, the serial oracle's is %v", res.Checksum, want)
		}
	})
}
