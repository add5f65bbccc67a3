package kvstore

import (
	"testing"

	"dsmpm2"
)

// testConfig is a small trace that still spans several epochs and a hot-key
// churn, kept cheap enough for -short CI runs.
func testConfig() Config {
	return Config{
		Nodes:    4,
		Buckets:  16,
		Keys:     256,
		Requests: 600,
		Epochs:   6,
		Phases:   2,
		Seed:     7,
	}
}

// TestChecksumMatchesSerialOracle: the DSM store's final table must fold to
// the serial last-put-wins oracle, under every placement variant — per-key
// requests serialize through one bucket lock on one server's FIFO queue.
func TestChecksumMatchesSerialOracle(t *testing.T) {
	want, hot, err := ServeSerial(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"natural", func(c *Config) {}},
		{"static-misplaced", func(c *Config) { c.MisplaceHomes = true }},
		{"adaptive", func(c *Config) { c.MisplaceHomes = true; c.AdaptiveHomes = true }},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			cfg := testConfig()
			v.mut(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Checksum != want {
				t.Errorf("checksum = %#x, want serial oracle %#x", res.Checksum, want)
			}
			if res.Served != int64(cfg.Requests) || res.Dropped != 0 {
				t.Errorf("served %d dropped %d, want %d/0", res.Served, res.Dropped, cfg.Requests)
			}
			if len(res.HotKeys) != cfg.TopN && len(res.HotKeys) != 5 {
				t.Errorf("hot-key report has %d entries", len(res.HotKeys))
			}
			for i, h := range res.HotKeys {
				if h != hot[i] {
					t.Errorf("hot key %d = %+v, want %+v", i, h, hot[i])
				}
			}
			if got := res.Op("get").Count + res.Op("put").Count; got != int64(cfg.Requests) {
				t.Errorf("histogram counts sum to %d, want %d", got, cfg.Requests)
			}
			if len(res.PerKey) != len(res.HotKeys) {
				t.Fatalf("per-key digests: %d entries for %d hot keys", len(res.PerKey), len(res.HotKeys))
			}
			for i, kl := range res.PerKey {
				// No deadline → every request for a hot key was served, so
				// the per-key histogram count equals the trace's tally.
				if kl.Key != res.HotKeys[i].Key || kl.Count != res.HotKeys[i].Count {
					t.Errorf("per-key digest %d = key %d count %d, want key %d count %d",
						i, kl.Key, kl.Count, res.HotKeys[i].Key, res.HotKeys[i].Count)
				}
				if kl.P50 <= 0 || kl.P99 < kl.P50 || kl.Max < kl.Mean {
					t.Errorf("per-key digest %d implausible: %+v", i, kl)
				}
			}
		})
	}
}

// TestReplayBitIdentical: two runs of one seed must produce bit-identical
// latency histograms (struct equality over every bucket), the property the
// serve experiment's replay check rests on.
func TestReplayBitIdentical(t *testing.T) {
	cfg := testConfig()
	cfg.MisplaceHomes = true
	cfg.AdaptiveHomes = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Checksum != b.Checksum {
		t.Fatalf("replay diverged: elapsed %v vs %v, checksum %#x vs %#x",
			a.Elapsed, b.Elapsed, a.Checksum, b.Checksum)
	}
	for _, kind := range a.System.OpKinds() {
		ha, hb := a.System.OpHist(kind).Snapshot(), b.System.OpHist(kind).Snapshot()
		if ha != hb {
			t.Errorf("%q histogram not bit-identical across replays", kind)
		}
	}
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("op summaries differ in length: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Errorf("op summary %q differs across replays: %+v vs %+v",
				a.Ops[i].Kind, a.Ops[i], b.Ops[i])
		}
	}
	if len(a.PerKey) != len(b.PerKey) {
		t.Fatalf("per-key digests differ in length: %d vs %d", len(a.PerKey), len(b.PerKey))
	}
	for i := range a.PerKey {
		if a.PerKey[i] != b.PerKey[i] {
			t.Errorf("per-key digest for key %d differs across replays: %+v vs %+v",
				a.PerKey[i].Key, a.PerKey[i], b.PerKey[i])
		}
	}
}

// TestAdaptiveBeatsStaticTail is the headline property of the serve
// experiment: same trace, misplaced homes — enabling home migration must
// cut the p99 get latency, because the profiler re-homes each hot bucket
// onto its server while static placement pays a remote fetch per acquire.
func TestAdaptiveBeatsStaticTail(t *testing.T) {
	cfg := testConfig()
	cfg.MisplaceHomes = true
	static, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AdaptiveHomes = true
	adaptive, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp99, ap99 := static.Op("get").P99, adaptive.Op("get").P99
	if ap99 >= sp99 {
		t.Errorf("adaptive p99 %v not below static p99 %v", ap99, sp99)
	}
	if adaptive.Stats.HomeMigrations == 0 {
		t.Error("adaptive run performed no home migrations")
	}
}

// TestDeadlineDrops: with a deadline set, stale requests are dropped into
// the "drop" histogram instead of served, and the books balance.
func TestDeadlineDrops(t *testing.T) {
	cfg := testConfig()
	cfg.MisplaceHomes = true // slow placement, so queues actually back up
	cfg.ReadFraction = 1     // drops must not change the table
	cfg.MeanInterarrival = 2 * dsmpm2.Microsecond
	cfg.Deadline = 50 * dsmpm2.Microsecond
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("overloaded run with a 50us deadline dropped nothing")
	}
	if res.Served+res.Dropped != int64(cfg.Requests) {
		t.Fatalf("served %d + dropped %d != %d requests", res.Served, res.Dropped, cfg.Requests)
	}
	if res.Op("drop").Count != res.Dropped {
		t.Fatalf("drop histogram count %d != dropped %d", res.Op("drop").Count, res.Dropped)
	}
	want, _, err := ServeSerial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checksum != want {
		t.Errorf("read-only run changed the table: checksum %#x, want %#x", res.Checksum, want)
	}
}

// TestConfigValidation pins the rejection edges.
func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = -1 },
		func(c *Config) { c.Keys = 17 * slotsPerBucket; c.Buckets = 16 },
		func(c *Config) { c.ZipfS = 0.5 },
		func(c *Config) { c.ReadFraction = 1.5 },
		func(c *Config) { c.Requests = -3 },
		func(c *Config) { c.Epochs = -1 },
	}
	for i, mut := range bad {
		cfg := testConfig()
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
