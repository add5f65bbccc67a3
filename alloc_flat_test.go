package dsmpm2_test

import (
	"runtime"
	"testing"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/kvstore"
)

// runCost is what one run allocates on the host: bytes and objects, each the
// least of three runs.
type runCost struct{ bytes, objects uint64 }

func leastCost(t *testing.T, run func() error) runCost {
	t.Helper()
	least := runCost{^uint64(0), ^uint64(0)}
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least.bytes = min(least.bytes, after.TotalAlloc-before.TotalAlloc)
		least.objects = min(least.objects, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestAllocationFlatInRunLength: a warm run allocates for the state it holds,
// not for how long it runs. kvstore draws each request when it falls due into
// a pooled record, so quadrupling its requests adds no allocation; a barrier
// generation and a release sweep reuse their records, so doubling jacobi's
// iterations adds less than one generation's worth of objects in all. Under
// -race the counts are not held: the detector's instrumentation allocates.
func TestAllocationFlatInRunLength(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	kv := func(requests int) runCost {
		return leastCost(t, func() error {
			_, err := kvstore.Run(kvstore.Config{
				Nodes: 8, Buckets: 16, Keys: 512,
				Requests: requests,
				Epochs:   8, Phases: 64,
				MisplaceHomes: true,
				Seed:          11,
			})
			return err
		})
	}
	jac := func(iterations int) runCost {
		return leastCost(t, func() error {
			_, err := jacobi.Run(jacobi.Config{
				Nodes: 16, N: 128, Iterations: iterations,
				Protocol: "hbrc_mw", Network: dsmpm2.BIPMyrinet, Seed: 1,
			})
			return err
		})
	}
	for _, c := range []struct {
		name              string
		short, long       runCost
		maxBytes, maxObjs uint64
	}{
		{"kvstore 30k -> 120k requests", kv(30_000), kv(120_000), 64 << 10, 8},
		{"jacobi 40 -> 80 iterations", jac(40), jac(80), 16 << 10, 82},
	} {
		dBytes := int64(c.long.bytes) - int64(c.short.bytes)
		dObjs := int64(c.long.objects) - int64(c.short.objects)
		t.Logf("%s: %d -> %d bytes (%+d), %d -> %d objects (%+d)", c.name,
			c.short.bytes, c.long.bytes, dBytes, c.short.objects, c.long.objects, dObjs)
		if dBytes > int64(c.maxBytes) || dObjs > int64(c.maxObjs) {
			t.Errorf("%s adds %d bytes and %d objects, want at most %d and %d",
				c.name, dBytes, dObjs, c.maxBytes, c.maxObjs)
		}
	}
}
