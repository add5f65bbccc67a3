package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// shardRing runs a token ring of procs spread round-robin over the shards
// of se: proc i lives on shard i%shards, receives on its own channel,
// advances, and forwards to proc i+1 — a cross-shard hop whenever the
// neighbour lives elsewhere. It returns a per-shard execution trace
// (deterministic iff the sharded schedule is).
func shardRing(se *ShardedEngine, procs, hops int, lat Duration) ([][]string, error) {
	n := len(se.shards)
	chans := make([]*Chan, procs)
	shard := func(i int) int { return i % n }
	for i := range chans {
		chans[i] = new(Chan)
	}
	traces := make([][]string, n)
	for i := 0; i < procs; i++ {
		i := i
		e := se.Shard(shard(i))
		e.Go(fmt.Sprintf("ring%d", i), func(p *Proc) {
			next := (i + 1) % procs
			for h := 0; h < hops; h++ {
				v := chans[i].Recv(p)
				p.Advance(Microsecond)
				s := shard(i)
				traces[s] = append(traces[s], fmt.Sprintf("%d:%d:%v:%v", i, h, v, p.Now()))
				e.SchedulePushShard(shard(next), p.Now().Add(lat), chans[next], i)
			}
		})
	}
	// Seed one token per shard so every shard has work from the start.
	for s := 0; s < n && s < procs; s++ {
		se.Shard(s).SchedulePush(0, chans[s], -1-s)
	}
	err := se.Run()
	return traces, err
}

func fingerprintTraces(traces [][]string) string {
	h := sha256.New()
	for s, tr := range traces {
		fmt.Fprintf(h, "shard%d:%s\n", s, strings.Join(tr, ";"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedRingCompletes drives a cross-shard token ring to completion
// and checks every hop ran.
func TestShardedRingCompletes(t *testing.T) {
	se := NewShardedEngine(1, 4, 10*Microsecond)
	traces, err := shardRing(se, 16, 50, 10*Microsecond)
	if err != nil {
		t.Fatalf("sharded ring: %v", err)
	}
	total := 0
	for _, tr := range traces {
		total += len(tr)
	}
	if want := 16 * 50; total != want {
		t.Fatalf("ring hops executed = %d, want %d", total, want)
	}
	if se.Events() == 0 {
		t.Fatal("sharded engine reported zero events")
	}
}

// TestShardedDeterministicRepeats runs the same fixed-N workload many times
// and requires bit-identical per-shard traces — the schedule must be a
// function of the simulation, not of the host scheduler.
func TestShardedDeterministicRepeats(t *testing.T) {
	var want string
	trials := 20
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		se := NewShardedEngine(7, 3, 25*Microsecond)
		traces, err := shardRing(se, 9, 40, 25*Microsecond)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fp := fingerprintTraces(traces)
		if trial == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("trial %d fingerprint %s != trial 0 %s", trial, fp, want)
		}
	}
}

// TestShardedShuffledArrivalOrder injects random wall-clock delays at every
// shard synchronization point, deliberately shuffling the order in which
// cross-shard events physically arrive and the horizon sequence each shard
// observes. The virtual schedule must not move.
func TestShardedShuffledArrivalOrder(t *testing.T) {
	var want string
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		se := NewShardedEngine(11, 4, 15*Microsecond)
		if trial > 0 {
			rng := rand.New(rand.NewSource(int64(trial)))
			var mu = make(chan struct{}, 1)
			mu <- struct{}{}
			se.SetSyncHook(func(shard int) {
				<-mu
				d := time.Duration(rng.Intn(200)) * time.Microsecond
				mu <- struct{}{}
				if d > 0 {
					time.Sleep(d)
				}
				runtime.Gosched()
			})
		}
		traces, err := shardRing(se, 12, 30, 15*Microsecond)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fp := fingerprintTraces(traces)
		if trial == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("jitter trial %d fingerprint %s != baseline %s", trial, fp, want)
		}
	}
}

// TestOneShardBitIdentical runs the same workload on a legacy Engine and on
// the single shard of a one-shard ShardedEngine and requires identical
// traces, clocks and event counts — the shards=1 compatibility guarantee.
func TestOneShardBitIdentical(t *testing.T) {
	run := func(eng *Engine, runner func() error) (string, uint64, Time) {
		chans := make([]*Chan, 8)
		for i := range chans {
			chans[i] = new(Chan)
		}
		var trace []string
		for i := 0; i < 8; i++ {
			i := i
			eng.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for h := 0; h < 25; h++ {
					v := chans[i].Recv(p)
					p.Advance(Duration(1+i%3) * Microsecond)
					trace = append(trace, fmt.Sprintf("%d:%d:%v:%v:%d", i, h, v, p.Now(), eng.Rand().Intn(100)))
					chans[(i+1)%8].Push(i)
				}
			})
		}
		chans[0].Push(-1)
		chans[4].Push(-2)
		if err := runner(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return strings.Join(trace, ";"), eng.Events(), eng.Now()
	}
	legacy := NewEngine(42)
	lt, lev, lnow := run(legacy, legacy.Run)
	se := NewShardedEngine(42, 1, 0)
	if se.Shard(0).sh != nil {
		t.Fatal("one-shard engine must not carry a shard controller")
	}
	st, sev, snow := run(se.Shard(0), se.Run)
	if lt != st {
		t.Fatalf("one-shard trace diverged from legacy engine:\nlegacy: %s\nshard:  %s", lt, st)
	}
	if lev != sev || lnow != snow {
		t.Fatalf("one-shard (events,now)=(%d,%v), legacy (%d,%v)", sev, snow, lev, lnow)
	}
}

// TestShardBlockedOnHorizonIsNotDeadlock: a shard whose procs are all
// parked waiting for remote traffic must simply wait for its input horizon,
// not report a deadlock, as long as another shard will eventually feed it.
func TestShardBlockedOnHorizonIsNotDeadlock(t *testing.T) {
	se := NewShardedEngine(3, 2, 5*Microsecond)
	got := new(Chan)
	// Shard 1: a single consumer with an empty local calendar — it parks
	// immediately and its shard blocks on the horizon.
	var sum int
	se.Shard(1).Go("consumer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			sum += got.Recv(p).(int)
		}
	})
	// Shard 0: a producer that computes between sends, so shard 1 spends
	// most of the run parked beyond its horizon.
	se.Shard(0).Go("producer", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Advance(50 * Microsecond)
			p.Engine().SchedulePushShard(1, p.Now().Add(5*Microsecond), got, i)
		}
	})
	if err := se.Run(); err != nil {
		t.Fatalf("horizon-blocked shard misreported: %v", err)
	}
	if sum != 45 {
		t.Fatalf("consumer sum = %d, want 45", sum)
	}
}

// TestShardedGenuineDeadlock: when every shard is globally idle and procs
// remain parked, the run must end with a shard-tagged DeadlockError.
func TestShardedGenuineDeadlock(t *testing.T) {
	se := NewShardedEngine(5, 2, 5*Microsecond)
	orphan := new(Chan)
	se.Shard(0).Go("waiter-a", func(p *Proc) { orphan.Recv(p) })
	se.Shard(1).Go("feeder", func(p *Proc) { p.Advance(Microsecond) })
	err := se.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "shard0:waiter-a") {
		t.Fatalf("blocked = %v, want shard-tagged waiter-a", de.Blocked)
	}
}

// TestShardedStopPropagates: stopping from a proc on one shard ends the
// whole run without a deadlock report.
func TestShardedStopPropagates(t *testing.T) {
	se := NewShardedEngine(9, 3, 5*Microsecond)
	hung := new(Chan)
	se.Shard(1).Go("hung", func(p *Proc) { hung.Recv(p) })
	se.Shard(2).Go("busy", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Advance(Microsecond)
		}
	})
	se.Shard(0).Go("stopper", func(p *Proc) {
		p.Advance(10 * Microsecond)
		se.Stop()
	})
	if err := se.Run(); err != nil {
		t.Fatalf("stopped run must not error: %v", err)
	}
}

// TestShardedLookaheadViolationPanics: a cross-shard event below the
// promised lookahead must fail fast — silently admitting it would break
// the conservative synchronization invariant.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	se := NewShardedEngine(1, 2, 10*Microsecond)
	ch := new(Chan)
	se.Shard(1).Go("sink", func(p *Proc) { ch.Recv(p) })
	se.Shard(0).Go("cheater", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("lookahead violation did not panic")
			}
			se.Stop()
		}()
		p.Engine().SchedulePushShard(1, p.Now().Add(Microsecond), ch, 1)
	})
	_ = se.Run()
}

// TestShardedRunOnShardPanics: driving one shard's Engine.Run directly
// would bypass the synchronization protocol.
func TestShardedRunOnShardPanics(t *testing.T) {
	se := NewShardedEngine(1, 2, Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Engine.Run on a shard did not panic")
		}
	}()
	_ = se.Shard(0).Run()
}

// TestShardedQuiescenceJump: procs whose next events sit far beyond the
// lookahead must still make progress quickly (the quiescence grant jumps
// horizons instead of creeping one lookahead at a time). The ring below
// would need ~10^6 creep rounds without the jump; with it, the run is
// near-instant.
func TestShardedQuiescenceJump(t *testing.T) {
	se := NewShardedEngine(2, 4, Microsecond)
	var done [4]bool
	for s := 0; s < 4; s++ {
		s := s
		se.Shard(s).Go(fmt.Sprintf("sleeper%d", s), func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Advance(Duration(s+1) * Second) // far beyond the 1us lookahead
			}
			done[s] = true
		})
	}
	start := time.Now()
	if err := se.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	for s, d := range done {
		if !d {
			t.Fatalf("sleeper%d did not finish", s)
		}
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("quiescence jump too slow: %v (horizon creep?)", el)
	}
}
