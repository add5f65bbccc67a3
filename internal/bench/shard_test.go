package bench

import (
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/kvstore"
	"dsmpm2/internal/apps/matmul"
	"dsmpm2/internal/apps/tsp"
	"dsmpm2/internal/core"
)

// appRuns are the three paper applications at small scale, parameterized by
// the facade's Shards knob. value is the application-level answer (grid
// checksum, product checksum, best tour cost) — the cross-shard conformance
// invariant: whatever the kernel parallelism, the computed answer must match.
var appRuns = []struct {
	name string
	run  func(shards int) (*dsmpm2.System, float64, error)
}{
	{"jacobi", func(shards int) (*dsmpm2.System, float64, error) {
		res, err := jacobi.Run(jacobi.Config{
			N: 16, Iterations: 3, Nodes: 4,
			Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: 1, Shards: shards,
		})
		return res.System, res.Checksum, err
	}},
	{"matmul", func(shards int) (*dsmpm2.System, float64, error) {
		res, err := matmul.Run(matmul.Config{
			N: 12, Nodes: 4,
			Network: dsmpm2.BIPMyrinet, Protocol: "li_hudak", Seed: 3, Shards: shards,
		})
		return res.System, res.Checksum, err
	}},
	{"tsp", func(shards int) (*dsmpm2.System, float64, error) {
		res, err := tsp.Run(tsp.Config{
			Cities: 8, Seed: 42, Nodes: 4,
			Network: dsmpm2.BIPMyrinet, Protocol: "li_hudak", Shards: shards,
		})
		return res.System, float64(res.BestCost), err
	}},
}

// TestShardsOneMatchesLegacyFingerprint: requesting Shards=1 through the
// facade must replay the legacy single-loop engine bit for bit — same final
// clock, same timing log, same stats — on all three paper applications.
func TestShardsOneMatchesLegacyFingerprint(t *testing.T) {
	for _, app := range appRuns {
		legacy, _, err := app.run(0)
		if err != nil {
			t.Fatalf("%s shards=0: %v", app.name, err)
		}
		one, _, err := app.run(1)
		if err != nil {
			t.Fatalf("%s shards=1: %v", app.name, err)
		}
		if a, b := TraceFingerprint(legacy), TraceFingerprint(one); a != b {
			t.Errorf("%s: shards=1 fingerprint %s != legacy %s", app.name, b, a)
		}
	}
}

// TestShardedRunsDeterministicAndConformant: with the Shards<=1 restriction
// lifted, a sharded DSM run must (a) be deterministic — two runs of the same
// config and seed produce identical fingerprints (final clock, timing log,
// stats), whatever the host interleaves — and (b) conform — the application-
// level answer matches the single-loop run. The virtual schedule itself may
// differ from single-loop (the combining-tree barrier takes different message
// paths than the flat one), so fingerprints are compared within a shard
// count, never across.
func TestShardedRunsDeterministicAndConformant(t *testing.T) {
	for _, app := range appRuns {
		_, want, err := app.run(1)
		if err != nil {
			t.Fatalf("%s shards=1: %v", app.name, err)
		}
		for _, shards := range []int{2, 4} {
			s1, v1, err := app.run(shards)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", app.name, shards, err)
			}
			s2, v2, err := app.run(shards)
			if err != nil {
				t.Fatalf("%s shards=%d rerun: %v", app.name, shards, err)
			}
			if a, b := TraceFingerprint(s1), TraceFingerprint(s2); a != b {
				t.Errorf("%s shards=%d: rerun fingerprint %s != %s (nondeterministic)",
					app.name, shards, b, a)
			}
			if v1 != want {
				t.Errorf("%s shards=%d: answer %v != single-loop %v", app.name, shards, v1, want)
			}
			if v2 != want {
				t.Errorf("%s shards=%d rerun: answer %v != single-loop %v", app.name, shards, v2, want)
			}
		}
	}
}

// TestShardedServeDeterministicAndConformant: the serving workload — open-
// loop Zipf trace over entry-consistency locks with the adaptive profiler's
// epoch barriers — runs end-to-end on 2 and 4 shards, deterministically
// (replayed fingerprints and latency digests bit-identical) and conformant
// (final-table checksum equals the serial oracle).
func TestShardedServeDeterministicAndConformant(t *testing.T) {
	oracle, _, err := kvstore.ServeSerial(serveConfig())
	if err != nil {
		t.Fatalf("serial oracle: %v", err)
	}
	for _, shards := range []int{2, 4} {
		for _, adaptive := range []bool{false, true} {
			r1, err := serveMeasure(adaptive, shards)
			if err != nil {
				t.Fatalf("shards=%d adaptive=%v: %v", shards, adaptive, err)
			}
			r2, err := serveMeasure(adaptive, shards)
			if err != nil {
				t.Fatalf("shards=%d adaptive=%v rerun: %v", shards, adaptive, err)
			}
			if r1.Fingerprint != r2.Fingerprint {
				t.Errorf("shards=%d adaptive=%v: rerun fingerprint %s != %s (nondeterministic)",
					shards, adaptive, r2.Fingerprint, r1.Fingerprint)
			}
			if len(r1.Ops) != len(r2.Ops) {
				t.Fatalf("shards=%d adaptive=%v: rerun op kinds differ", shards, adaptive)
			}
			for i := range r1.Ops {
				if r1.Ops[i] != r2.Ops[i] {
					t.Errorf("shards=%d adaptive=%v: rerun %s digest differs",
						shards, adaptive, r1.Ops[i].Kind)
				}
			}
			if r1.Checksum != oracle {
				t.Errorf("shards=%d adaptive=%v: checksum %#x != serial oracle %#x",
					shards, adaptive, r1.Checksum, oracle)
			}
		}
	}
}

// TestShardedStormVirtualClockInvariant: the sharded event storm schedules
// every hand-off at now+1µs regardless of placement, so the virtual schedule
// — and in particular the final clock — must be identical at every shard
// count. Only the host-core spread may differ.
func TestShardedStormVirtualClockInvariant(t *testing.T) {
	base := EventStormSharded(32, 40, 1)
	for _, shards := range []int{2, 4} {
		r := EventStormSharded(32, 40, shards)
		if r.VirtualMS != base.VirtualMS {
			t.Errorf("shards=%d: virtual clock %.6f ms != shards=1 %.6f ms",
				shards, r.VirtualMS, base.VirtualMS)
		}
	}
}

// TestShardedRunsPoisoned reruns the sharded application tests with the core's
// use-after-free net on (core.PoisonFreed): records cross shards here, freed
// into the consuming shard's pools, and under -race this is where a record
// touched by its sender after the receiver freed it would show.
func TestShardedRunsPoisoned(t *testing.T) {
	core.PoisonFreed = true
	defer func() { core.PoisonFreed = false }()
	t.Run("apps", TestShardedRunsDeterministicAndConformant)
	t.Run("serve", TestShardedServeDeterministicAndConformant)
}
