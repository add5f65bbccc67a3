package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
)

// Fault injection: a FaultPlan is a declarative schedule of fault events
// (node crashes and restarts, link partitions and heals, message loss)
// injected into the engine as first-class timed events. The kernel itself
// stays mechanism-agnostic — it fires each event at its virtual time and
// hands it to an applier owned by the layers that know what a node or a
// link is (the network, the PM2 runtime, the DSM core).
//
// Determinism contract: the plan's events are sorted by a total order
// (time, kind, node, from, to) before scheduling, so two plans containing
// the same events in any order replay bit-identically; probabilistic loss
// is driven by a PRNG seeded from the plan, never from the engine's own
// random stream.

// FaultKind enumerates the fault event kinds a plan can schedule.
type FaultKind int

const (
	// FaultNodeCrash fail-stops a node: its threads die, in-flight
	// messages to it are dropped, and pages homed on it are re-homed.
	FaultNodeCrash FaultKind = iota
	// FaultNodeRestart brings a crashed node back with cold memory.
	FaultNodeRestart
	// FaultLinkPartition cuts the directed link From->To; messages queue
	// or drop per the plan's partition policy.
	FaultLinkPartition
	// FaultLinkHeal restores the directed link From->To, releasing any
	// queued messages in FIFO order.
	FaultLinkHeal
	// FaultLinkLoss sets the directed link's message drop and duplicate
	// probabilities (DropRate / DupRate); zero rates clear the lossiness.
	FaultLinkLoss
)

// String returns the kind's canonical spelling (used in plan JSON).
func (k FaultKind) String() string {
	switch k {
	case FaultNodeCrash:
		return "crash"
	case FaultNodeRestart:
		return "restart"
	case FaultLinkPartition:
		return "partition"
	case FaultLinkHeal:
		return "heal"
	case FaultLinkLoss:
		return "loss"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// parseFaultKind is the inverse of FaultKind.String.
func parseFaultKind(s string) (FaultKind, error) {
	switch s {
	case "crash":
		return FaultNodeCrash, nil
	case "restart":
		return FaultNodeRestart, nil
	case "partition":
		return FaultLinkPartition, nil
	case "heal":
		return FaultLinkHeal, nil
	case "loss":
		return FaultLinkLoss, nil
	default:
		return 0, fmt.Errorf("sim: unknown fault kind %q", s)
	}
}

// FaultEvent is one scheduled fault. At is an offset from the moment the
// plan is injected (plans compose with any amount of setup simulation before
// them). Node is used by the node kinds; From/To by the link kinds;
// DropRate/DupRate by FaultLinkLoss.
type FaultEvent struct {
	At   Time
	Kind FaultKind
	Node int
	From int
	To   int
	// DropRate is the probability a message on the link is dropped.
	DropRate float64
	// DupRate is the probability a message on the link is duplicated.
	DupRate float64
}

// faultEventJSON is the wire form of a FaultEvent (kind as string, times in
// nanoseconds of virtual time).
type faultEventJSON struct {
	At   int64   `json:"at"`
	Kind string  `json:"kind"`
	Node int     `json:"node,omitempty"`
	From int     `json:"from,omitempty"`
	To   int     `json:"to,omitempty"`
	Drop float64 `json:"drop_rate,omitempty"`
	Dup  float64 `json:"dup_rate,omitempty"`
}

// FaultPlan is a reproducible schedule of fault events plus the seed for
// any probabilistic decisions (message loss draws).
type FaultPlan struct {
	// Seed drives the fault layer's private PRNG. Zero means 1.
	Seed int64 `json:"seed"`
	// Events is the declarative schedule. Order does not matter: events
	// are sorted by (At, Kind, Node, From, To) before scheduling.
	Events []FaultEvent `json:"events"`
}

// MarshalJSON renders the plan with symbolic kinds.
func (p *FaultPlan) MarshalJSON() ([]byte, error) {
	type wire struct {
		Seed   int64            `json:"seed"`
		Events []faultEventJSON `json:"events"`
	}
	w := wire{Seed: p.Seed}
	for _, ev := range p.Events {
		w.Events = append(w.Events, faultEventJSON{
			At: int64(ev.At), Kind: ev.Kind.String(),
			Node: ev.Node, From: ev.From, To: ev.To,
			Drop: ev.DropRate, Dup: ev.DupRate,
		})
	}
	return json.Marshal(&w)
}

// UnmarshalJSON parses the symbolic-kind wire form.
func (p *FaultPlan) UnmarshalJSON(data []byte) error {
	type wire struct {
		Seed   int64            `json:"seed"`
		Events []faultEventJSON `json:"events"`
	}
	var w wire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	p.Seed = w.Seed
	p.Events = nil
	for _, ev := range w.Events {
		kind, err := parseFaultKind(ev.Kind)
		if err != nil {
			return err
		}
		p.Events = append(p.Events, FaultEvent{
			At: Time(ev.At), Kind: kind,
			Node: ev.Node, From: ev.From, To: ev.To,
			DropRate: ev.Drop, DupRate: ev.Dup,
		})
	}
	return nil
}

// LoadFaultPlan reads a plan from a JSON file and validates it; malformed
// plans (negative times, restarts of never-crashed nodes, out-of-range loss
// rates) are rejected with a descriptive error instead of misbehaving later.
func LoadFaultPlan(path string) (*FaultPlan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var p FaultPlan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("sim: fault plan %s: %w", path, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: fault plan %s: %w", path, err)
	}
	return &p, nil
}

// Save writes the plan to a JSON file in the symbolic wire form that
// LoadFaultPlan reads back. The plan is validated first so a bad schedule
// is caught at save time, not on the machine that loads it.
func (p *FaultPlan) Save(path string) error {
	if err := p.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Validate checks the plan for schedules that cannot mean anything sensible:
// negative times or node ids, unknown kinds, loss rates outside [0,1],
// self-links, restarting a node that is not crashed, or crashing a node
// twice without a restart in between. Events are checked in canonical
// injection order, so the crash/restart pairing reflects what would actually
// be applied.
func (p *FaultPlan) Validate() error {
	crashed := make(map[int]bool)
	for i, ev := range p.sorted() {
		if ev.At < 0 {
			return fmt.Errorf("sim: fault plan event %d (%s): negative time %d", i, ev.Kind, int64(ev.At))
		}
		switch ev.Kind {
		case FaultNodeCrash:
			if ev.Node < 0 {
				return fmt.Errorf("sim: fault plan event %d: crash of negative node %d", i, ev.Node)
			}
			if crashed[ev.Node] {
				return fmt.Errorf("sim: fault plan event %d: node %d crashed at t=%v while already crashed (missing restart)", i, ev.Node, ev.At)
			}
			crashed[ev.Node] = true
		case FaultNodeRestart:
			if ev.Node < 0 {
				return fmt.Errorf("sim: fault plan event %d: restart of negative node %d", i, ev.Node)
			}
			if !crashed[ev.Node] {
				return fmt.Errorf("sim: fault plan event %d: restart of node %d at t=%v before any crash", i, ev.Node, ev.At)
			}
			crashed[ev.Node] = false
		case FaultLinkPartition, FaultLinkHeal:
			if ev.From < 0 || ev.To < 0 {
				return fmt.Errorf("sim: fault plan event %d (%s): negative link endpoint %d->%d", i, ev.Kind, ev.From, ev.To)
			}
			if ev.From == ev.To {
				return fmt.Errorf("sim: fault plan event %d (%s): self-link %d->%d", i, ev.Kind, ev.From, ev.To)
			}
		case FaultLinkLoss:
			if ev.From < 0 || ev.To < 0 {
				return fmt.Errorf("sim: fault plan event %d (loss): negative link endpoint %d->%d", i, ev.From, ev.To)
			}
			if ev.DropRate < 0 || ev.DropRate > 1 {
				return fmt.Errorf("sim: fault plan event %d: drop rate %v outside [0,1]", i, ev.DropRate)
			}
			if ev.DupRate < 0 || ev.DupRate > 1 {
				return fmt.Errorf("sim: fault plan event %d: dup rate %v outside [0,1]", i, ev.DupRate)
			}
		default:
			return fmt.Errorf("sim: fault plan event %d: unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// Crash appends a node-crash event and returns the plan for chaining.
func (p *FaultPlan) Crash(at Time, node int) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, Kind: FaultNodeCrash, Node: node})
	return p
}

// Restart appends a node-restart event.
func (p *FaultPlan) Restart(at Time, node int) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{At: at, Kind: FaultNodeRestart, Node: node})
	return p
}

// Partition appends a bidirectional partition of the (a,b) node pair.
func (p *FaultPlan) Partition(at Time, a, b int) *FaultPlan {
	p.Events = append(p.Events,
		FaultEvent{At: at, Kind: FaultLinkPartition, From: a, To: b},
		FaultEvent{At: at, Kind: FaultLinkPartition, From: b, To: a})
	return p
}

// Heal appends a bidirectional heal of the (a,b) node pair.
func (p *FaultPlan) Heal(at Time, a, b int) *FaultPlan {
	p.Events = append(p.Events,
		FaultEvent{At: at, Kind: FaultLinkHeal, From: a, To: b},
		FaultEvent{At: at, Kind: FaultLinkHeal, From: b, To: a})
	return p
}

// Loss appends a directed-link loss-rate change.
func (p *FaultPlan) Loss(at Time, from, to int, dropRate, dupRate float64) *FaultPlan {
	p.Events = append(p.Events, FaultEvent{
		At: at, Kind: FaultLinkLoss, From: from, To: to,
		DropRate: dropRate, DupRate: dupRate,
	})
	return p
}

// sorted returns the plan's events in the canonical total order. The order
// is what makes replay independent of the order events were added in:
// same-time events apply in (kind, node, from, to) order, restarts after
// crashes, heals after partitions.
func (p *FaultPlan) sorted() []FaultEvent {
	evs := append([]FaultEvent(nil), p.Events...)
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return evs
}

// GenerateMTBFPlan builds a crash/restart plan from an exponential failure
// model: each non-protected node fails with the given mean time between
// failures over [0, horizon) and restarts after repair. The plan is a pure
// function of its arguments (seeded PRNG), so the same parameters always
// produce the same schedule.
func GenerateMTBFPlan(seed int64, nodes int, horizon Time, mtbf, repair Duration, protected ...int) *FaultPlan {
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	prot := make(map[int]bool, len(protected))
	for _, n := range protected {
		prot[n] = true
	}
	plan := &FaultPlan{Seed: seed}
	for n := 0; n < nodes; n++ {
		// Draw every node's failure sequence even for protected nodes, so
		// protecting a node does not shift the other nodes' schedules.
		t := Time(0)
		for {
			gap := Duration(rng.ExpFloat64() * float64(mtbf))
			t = t.Add(gap)
			if t >= horizon {
				break
			}
			if !prot[n] {
				plan.Crash(t, n)
				plan.Restart(t.Add(repair), n)
			}
			t = t.Add(repair)
		}
	}
	return plan
}

// FaultCursor injects a fault plan one event at a time, in canonical order,
// handing each to apply at base + event.At. apply runs in engine context (no
// proc holds the token), so it may mutate simulation state freely but must
// not block. Only the next un-applied event is ever in the queue: Run always
// drains the queue, including future-dated events, so under chunked
// execution (many short Run phases) an up-front injection would collapse the
// entire plan into the first chunk. The cursor instead parks when an event
// fires after all application procs have finished — the fault is NOT
// applied, and the next Arm re-schedules it so it lands in the first chunk
// that actually has live work.
//
// Arm must be called before each Run phase (the dsmpm2 facade does this in
// System.Run). All of this is deterministic: the parked fire and the re-arm
// consume engine sequence numbers identically in every run of the same
// chunking.
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
