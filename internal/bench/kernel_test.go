package bench

import "testing"

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

// TestKernelPushesAreEvents: every event a KernelSuite scenario fires was
// pushed once, and its runs leave nothing queued, so the three push counts
// that -exp kernel prints as shares of the events add up to the events.
func TestKernelPushesAreEvents(t *testing.T) {
	for _, r := range KernelSuite() {
		if q := r.Queue; q.AtNow+q.NewRun+q.Joined != r.Events {
			t.Errorf("%s: %d at-now + %d new-run + %d joined pushes, %d events", r.Name, q.AtNow, q.NewRun, q.Joined, r.Events)
		}
	}
}
