package sim

import (
	"fmt"
	"math/rand"
)

// Kernel checkpoint/restore. The engine's state at a safe point — the queue
// fully drained, no proc holding the token, every non-daemon proc finished —
// reduces to a handful of scalars: the clock, the scheduling sequence
// counter, the proc id allocator, the event count, and the position of the
// deterministic random stream. Snapshot captures exactly those, and Restore
// stomps a freshly built engine (same seed, same daemon set, same drained
// state) to the captured position so that everything scheduled afterwards
// replays bit-identically.
//
// Goroutine stacks are deliberately NOT serialized: checkpoints are only
// legal between Run calls, where no proc is live but a daemon parked by
// design — state that a fresh engine rebuilds structurally. The DSM stack
// leaves none: its services are bound to their queues, not served by procs.

// countingSource wraps the standard library's seeded source and counts how
// many values have been drawn, so the stream position can be captured and
// re-established by burning the same number of draws.
//
// It must implement BOTH Int63 and Uint64: rand.New special-cases Source64,
// and the wrapped runtime source is one, so implementing only Int63 would
// change which underlying method rand.Rand calls and shift the stream
// relative to rand.New(rand.NewSource(seed)). Each call advances the
// underlying generator by exactly one step regardless of entry point, so a
// single counter suffices.
//
// The wrapped source is seeded by the first draw: most engines never draw,
// and a seeded source is 5 KB that a parked system would pin.
type countingSource struct {
	seed  int64
	src   rand.Source64
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed}
}

// next counts one draw and returns the source to take it from.
func (c *countingSource) next() rand.Source64 {
	if c.src == nil {
		c.src = rand.NewSource(c.seed).(rand.Source64)
	}
	c.draws++
	return c.src
}

func (c *countingSource) Int63() int64 { return c.next().Int63() }

func (c *countingSource) Uint64() uint64 { return c.next().Uint64() }

func (c *countingSource) Seed(seed int64) {
	*c = countingSource{seed: seed}
}

// maxBurn bounds the stream position a restore replays to: far beyond any
// run's draws, and a second or two of host time, so a hostile checkpoint
// cannot stall a restore for hours.
const maxBurn = 1 << 28

// burnTo advances the source until draws reaches target. It reports an error
// if the stream is already past target (the restoring engine consumed more
// randomness than the captured one — a config mismatch, not recoverable), or
// if target lies past maxBurn.
func (c *countingSource) burnTo(target uint64) error {
	if c.draws > target {
		return fmt.Errorf("sim: restore: RNG stream at %d draws, past checkpoint's %d (engine not freshly built, or config mismatch)", c.draws, target)
	}
	if target > maxBurn {
		return fmt.Errorf("sim: restore: RNG stream position %d past the %d a restore replays", target, maxBurn)
	}
	for c.draws < target {
		c.Uint64()
	}
	return nil
}

// CountedRand is a seeded *rand.Rand whose stream position is observable
// and re-establishable: the checkpointable form of the private PRNG the
// fault layer keeps for its loss draws. The embedded Rand is used exactly like any other; Draws and
// BurnTo capture and restore the position.
type CountedRand struct {
	*rand.Rand
	src *countingSource
}

// NewCountedRand returns a counted PRNG seeded with seed. The stream is
// bit-identical to rand.New(rand.NewSource(seed)).
func NewCountedRand(seed int64) *CountedRand {
	src := newCountingSource(seed)
	return &CountedRand{Rand: rand.New(src), src: src}
}

// Draws reports how many values have been drawn.
func (c *CountedRand) Draws() uint64 { return c.src.draws }

// BurnTo advances the stream to the given draw count; it fails if the
// stream is already past it.
func (c *CountedRand) BurnTo(n uint64) error { return c.src.burnTo(n) }

// Snapshot is the serializable kernel state at a safe point. It is
// self-describing: Seed identifies the stream RNGDraws indexes into, so a
// restoring engine can verify it was built compatibly.
type Snapshot struct {
	Now      Time   `json:"now"`
	Seq      uint64 `json:"seq"`
	NextID   int    `json:"next_id"`
	NEvents  uint64 `json:"nevents"`
	Seed     int64  `json:"seed"`
	RNGDraws uint64 `json:"rng_draws"`
}

// quiesced reports nil when the engine is at a checkpointable safe point.
func (e *Engine) quiesced(op string) error {
	switch {
	case e.sh != nil:
		return fmt.Errorf("sim: %s: sharded engines do not support kernel snapshots", op)
	case e.cur != nil:
		return fmt.Errorf("sim: %s: proc %q holds the simulation token (call between Run phases)", op, e.cur.name)
	case e.nqueued != 0:
		return fmt.Errorf("sim: %s: %d event(s) still queued (queue must be drained)", op, e.nqueued)
	case e.nlive != 0:
		return fmt.Errorf("sim: %s: %d non-daemon proc(s) still live", op, e.nlive)
	}
	return nil
}

// Capture snapshots the kernel at a safe point: between Run calls, with the
// event queue drained and every non-daemon proc finished. Daemons parked on
// their channels are fine — they carry no kernel state beyond their park,
// which a restored engine rebuilds structurally.
func (e *Engine) Capture() (Snapshot, error) {
	if err := e.quiesced("capture"); err != nil {
		return Snapshot{}, err
	}
	return Snapshot{
		Now:      e.now,
		Seq:      e.seq,
		NextID:   e.nextID,
		NEvents:  e.nevents,
		Seed:     e.rngSrc.seed,
		RNGDraws: e.rngSrc.draws,
	}, nil
}

// Restore stomps the kernel to a captured safe point. The engine must have
// been created with the snapshot's seed, be at a safe point itself (drained,
// no token holder), and must not have consumed more counters or random draws
// than the snapshot records — i.e. it is a freshly built system that has
// only replayed its structural setup (daemon spawns, service registration).
func (e *Engine) Restore(s Snapshot) error {
	if err := e.quiesced("restore"); err != nil {
		return err
	}
	if e.rngSrc.seed != s.Seed {
		return fmt.Errorf("sim: restore: engine seeded %d, snapshot needs %d", e.rngSrc.seed, s.Seed)
	}
	if e.seq > s.Seq {
		return fmt.Errorf("sim: restore: engine already at seq %d, past checkpoint's %d", e.seq, s.Seq)
	}
	if e.nextID > s.NextID {
		return fmt.Errorf("sim: restore: engine already allocated proc id %d, past checkpoint's %d", e.nextID, s.NextID)
	}
	if err := e.rngSrc.burnTo(s.RNGDraws); err != nil {
		return err
	}
	e.now = s.Now
	e.seq = s.Seq
	e.nextID = s.NextID
	e.nevents = s.NEvents
	return nil
}

// RNGDraws reports how many values have been drawn from the engine's random
// source since creation (or the last reseed).
func (e *Engine) RNGDraws() uint64 { return e.rngSrc.draws }

// FaultCursor injects a fault plan one event at a time, in canonical order,
// handing each to apply at base + event.At. apply runs in engine context (no
// proc holds the token), so it may mutate simulation state freely but must
// not block. Only the next un-applied event is ever in the queue, which
// keeps two properties the checkpoint subsystem needs:
//
//   - The cursor's position is two scalars (next index, injection base), so
//     a snapshot can record "mid-plan" exactly and a restored run re-arms
//     from the same place.
//   - Run always drains the queue, including future-dated events. Under
//     chunked execution (many short Run phases), an up-front injection
//     would collapse the entire plan into the first chunk. The cursor
//     instead parks when an event fires after all application procs have
//     finished — the fault is NOT applied, and the next Arm re-schedules it
//     so it lands in the first chunk that actually has live work.
//
// Arm must be called before each Run phase (the dsmpm2 facade does this in
// System.Run). All of this is deterministic: the parked fire and the re-arm
// consume engine sequence numbers identically in a reference run and in a
// run restored from any of its checkpoints.
type FaultCursor struct {
	eng    *Engine
	apply  func(FaultEvent)
	events []FaultEvent // canonical (At, Kind, Node, From, To) order
	base   Time         // injection time; events fire at base + At
	next   int          // index of the next un-applied event
	armed  bool         // the next event is currently scheduled
}

// NewFaultCursor creates a cursor over plan with the injection base anchored
// at the current virtual time. A nil plan yields an exhausted cursor.
func (e *Engine) NewFaultCursor(plan *FaultPlan, apply func(FaultEvent)) *FaultCursor {
	c := &FaultCursor{eng: e, apply: apply, base: e.now}
	if plan != nil && apply != nil {
		c.events = plan.sorted()
	}
	return c
}

// Arm schedules the next un-applied event unless it is already scheduled or
// the plan is exhausted. Safe to call repeatedly (idempotent between fires).
func (c *FaultCursor) Arm() {
	if c.armed || c.next >= len(c.events) {
		return
	}
	c.armed = true
	ev := c.events[c.next]
	c.eng.Schedule(c.base.Add(Duration(ev.At)), c.fire)
}

// fire runs in engine context when the armed event's time arrives.
func (c *FaultCursor) fire() {
	c.armed = false
	if c.eng.nlive == 0 {
		// Every application proc has finished: this Run phase is draining.
		// Park without applying; the next Arm re-schedules the event (its
		// time clamps to the then-current clock if already past).
		return
	}
	ev := c.events[c.next]
	c.next++
	c.apply(ev)
	c.Arm()
}

// Pos reports the cursor position: the index of the next un-applied event
// and the injection base time. Together with the plan itself these fully
// describe the cursor for a checkpoint.
func (c *FaultCursor) Pos() (next int, base Time) { return c.next, c.base }

// SetPos moves the cursor to a captured position. The caller must Arm
// afterwards (the facade's Run does).
func (c *FaultCursor) SetPos(next int, base Time) error {
	if next < 0 || next > len(c.events) {
		return fmt.Errorf("sim: fault cursor position %d out of range [0,%d]", next, len(c.events))
	}
	c.next = next
	c.base = base
	c.armed = false
	return nil
}
