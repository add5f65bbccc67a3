package madeleine

import (
	"fmt"
	"math/rand"
	"slices"

	"dsmpm2/internal/sim"
)

// Network-level fault state. Everything in this file is gated on the fault
// layer being enabled: a network without EnableFaults pays a single nil
// check per send and behaves bit-for-bit like the fault-free code.
//
// The model is fail-stop nodes plus per-directed-link faults:
//
//   - a dead node neither sends nor receives; messages addressed to (or
//     from) it are dropped at the sending interface, and its inbound queues
//     are replaced wholesale (and unbound from their sinks) so that in-flight
//     deliveries land in orphaned channels instead of leaking into a later
//     incarnation of the node;
//   - a partitioned link queues its traffic until the link heals (a
//     transient partition with reliable transport underneath);
//   - a lossy link drops or duplicates each message independently with the
//     configured probabilities, drawn from the fault layer's private PRNG so
//     the engine's own random stream — and therefore the fault-free portion
//     of the replay — is untouched. A duplicate occupies the link like the
//     original but is never delivered: the receiver sees each message at
//     most once, as over the reliable transports Madeleine runs on.

// FaultStats aggregates the fault layer's counters.
type FaultStats struct {
	// DeadDrops counts messages dropped because an endpoint was dead.
	DeadDrops int
	// Dropped counts messages discarded by lossy links, or held on a
	// partition when an endpoint crashed.
	Dropped int
	// Duplicated counts extra copies lossy links put on the wire (and the
	// receiver discarded).
	Duplicated int
	// Held counts messages queued on partitioned links.
	Held int
	// HeldTime is the total virtual time held messages spent waiting for
	// their link to heal — the fault-induced latency the timing reports
	// attribute to the link (it surfaces in FaultTiming.Transfer and
	// TimingLog.ByLink automatically, since transfer time is measured
	// send-to-receive).
	HeldTime sim.Duration
	// Crashes and Restarts count node fault events applied.
	Crashes  int
	Restarts int
}

// heldMsg is one message parked on a partitioned link. A multi-part
// envelope (SendGather) is held as a unit: parts is non-nil, q/payload are
// unused, and heal re-injects the whole envelope through one departure.
type heldMsg struct {
	from    int
	to      int
	q       *sim.Chan
	payload interface{}
	size    int
	d       sim.Duration // arrival latency to charge from heal time
	isMsg   bool         // payload is a pooled *Message owned by this network
	parts   []*Message   // multi-part envelope held as a unit
	heldAt  sim.Time
}

// dropParts reclaims every part of a discarded multi-part envelope: each
// pooled Message (and its inner payload, via the drop handler) exactly once.
func (nw *Network) dropParts(fs *faultState, parts []*Message) {
	for _, m := range parts {
		nw.dropPayload(fs, m, true)
	}
}

// linkFault is the fault state of one directed link.
type linkFault struct {
	partitioned bool
	dropRate    float64
	dupRate     float64
	held        []heldMsg
}

// faultState is the fault layer (nil when faults are disabled).
type faultState struct {
	rng    *rand.Rand
	dead   []bool
	links  map[linkKey]*linkFault
	onDrop func(payload interface{})
	stats  FaultStats
}

// EnableFaults switches the fault layer on. seed drives the private PRNG
// behind probabilistic loss (zero means 1). Enabling faults on a quiet
// network is free until a fault is actually injected.
func (nw *Network) EnableFaults(seed int64) {
	if seed == 0 {
		seed = 1
	}
	nw.faults = &faultState{
		rng:   sim.NewRand(seed),
		dead:  make([]bool, nw.n),
		links: make(map[linkKey]*linkFault),
	}
}

// FaultsEnabled reports whether the fault layer is on.
func (nw *Network) FaultsEnabled() bool { return nw.faults != nil }

// FaultStats returns the fault layer's counters (zero value when disabled).
func (nw *Network) FaultStats() FaultStats {
	if nw.faults == nil {
		return FaultStats{}
	}
	return nw.faults.stats
}

// SetDropHandler installs fn, called exactly once with the payload of every
// message the fault layer discards, after the network has reclaimed its own
// *Message envelope. The PM2 runtime uses it to return pooled pm2.Request
// envelopes to their freelist; without a handler dropped payloads are simply
// left to the garbage collector.
func (nw *Network) SetDropHandler(fn func(payload interface{})) {
	nw.mustFaults("SetDropHandler").onDrop = fn
}

func (nw *Network) mustFaults(op string) *faultState {
	if nw.faults == nil {
		panic("madeleine: " + op + " before EnableFaults")
	}
	return nw.faults
}

// ApplyFault applies one fault-plan event through the mutators below, in
// engine context (see sim.FaultCursor).
func (nw *Network) ApplyFault(ev sim.FaultEvent) {
	switch ev.Kind {
	case sim.FaultNodeCrash:
		nw.CrashNode(ev.Node)
	case sim.FaultNodeRestart:
		nw.RestartNode(ev.Node)
	case sim.FaultLinkPartition:
		nw.PartitionLink(ev.From, ev.To)
	case sim.FaultLinkHeal:
		nw.HealLink(ev.From, ev.To)
	case sim.FaultLinkLoss:
		nw.SetLinkLoss(ev.From, ev.To, ev.DropRate, ev.DupRate)
	default:
		panic(fmt.Sprintf("madeleine: unknown fault kind %d", ev.Kind))
	}
}

// CrashNode fail-stops node n: subsequent messages to or from it are
// dropped, its inbound queues are replaced (in-flight deliveries land in the
// orphaned queues of the dead incarnation), and messages already held for it
// on partitioned links are discarded.
func (nw *Network) CrashNode(n int) {
	fs := nw.mustFaults("CrashNode")
	if n < 0 || n >= nw.n {
		panic(fmt.Sprintf("madeleine: crash of node %d out of range [0,%d)", n, nw.n))
	}
	if fs.dead[n] {
		return
	}
	fs.dead[n] = true
	fs.stats.Crashes++
	// Old queues are orphaned, not drained: deliveries already scheduled on
	// the engine hold pointers to them and must not reach the node's next
	// incarnation. Pending messages they contain are reclaimed now, and a
	// served queue (see Serve) is unbound, so that neither such a delivery nor
	// a drain record still pending at this instant starts a handler for the
	// dead incarnation: the sink stops consuming as a killed receiver would.
	old := nw.queues[n]
	nw.queues[n] = make([]*sim.Chan, 0)
	for _, q := range old {
		if q == nil {
			continue
		}
		q.ClearSink()
		for {
			v, ok := q.TryRecv()
			if !ok {
				break
			}
			nw.dropPayload(fs, v, true)
		}
	}
	nw.sweepHeld(fs, n)
}

// sweepHeld discards messages parked on partitioned links to or
// from node n. They will never be wanted: deliveries to a corpse are drops,
// and the fail-stop model says nothing sent by the dead incarnation may
// surface later (a held lock-acquire delivered after the node restarts would
// hand a ghost request resources its sender can never use).
func (nw *Network) sweepHeld(fs *faultState, n int) {
	for _, lf := range fs.links {
		kept := lf.held[:0]
		for _, hm := range lf.held {
			if hm.to == n || hm.from == n {
				if hm.parts != nil {
					nw.dropParts(fs, hm.parts)
				} else {
					nw.dropPayload(fs, hm.payload, hm.isMsg)
				}
				fs.stats.Dropped++
				continue
			}
			kept = append(kept, hm)
		}
		lf.held = kept
	}
}

// RestartNode brings a crashed node back. Its queues start empty (they were
// replaced at crash time); state above the network (pages, threads) is the
// upper layers' recovery problem.
func (nw *Network) RestartNode(n int) {
	fs := nw.mustFaults("RestartNode")
	if n < 0 || n >= nw.n {
		panic(fmt.Sprintf("madeleine: restart of node %d out of range [0,%d)", n, nw.n))
	}
	if !fs.dead[n] {
		return
	}
	fs.dead[n] = false
	fs.stats.Restarts++
}

// link returns (creating on demand) the fault state of the directed link.
func (fs *faultState) link(from, to int) *linkFault {
	key := linkKey{from, to}
	lf := fs.links[key]
	if lf == nil {
		lf = &linkFault{}
		fs.links[key] = lf
	}
	return lf
}

// PartitionLink cuts the directed link from->to.
func (nw *Network) PartitionLink(from, to int) {
	nw.mustFaults("PartitionLink").link(from, to).partitioned = true
}

// HealLink restores the directed link from->to, re-injecting any held
// messages in FIFO order with their original latency charged from now.
func (nw *Network) HealLink(from, to int) {
	fs := nw.mustFaults("HealLink")
	lf := fs.links[linkKey{from, to}]
	if lf == nil || !lf.partitioned {
		return
	}
	lf.partitioned = false
	held := lf.held
	lf.held = nil
	now := nw.eng.Now()
	for _, hm := range held {
		dead := func(n int) bool { return n >= 0 && n < nw.n && fs.dead[n] }
		if dead(hm.to) || dead(hm.from) {
			if hm.parts != nil {
				nw.dropParts(fs, hm.parts)
			} else {
				nw.dropPayload(fs, hm.payload, hm.isMsg)
			}
			fs.stats.Dropped++
			continue
		}
		fs.stats.HeldTime += now.Sub(hm.heldAt)
		// Re-inject through the occupancy clock: a healed burst pays the
		// same link serialization a normally-sent burst would.
		if hm.parts != nil {
			nw.deliverGather(hm.from, hm.to, hm.parts, hm.size, hm.d)
			continue
		}
		depart := nw.departure(hm.from, hm.to, hm.size)
		nw.eng.SchedulePush(depart.Add(hm.d), hm.q, hm.payload)
	}
}

// SetLinkLoss makes the directed link lossy: each message is independently
// dropped with probability dropRate and duplicated with probability dupRate
// (a duplicate costs link time, never a second delivery). Zero rates
// restore reliability.
func (nw *Network) SetLinkLoss(from, to int, dropRate, dupRate float64) {
	lf := nw.mustFaults("SetLinkLoss").link(from, to)
	lf.dropRate = dropRate
	lf.dupRate = dupRate
}

// dropPayload reclaims a discarded message: the network's own pooled
// envelope is freed exactly once, and the inner payload is handed to the
// drop handler exactly once so upper layers can reclaim their envelopes.
// The payload-extraction order matters: FreeMessage zeroes the Message, so
// the inner payload is captured first.
func (nw *Network) dropPayload(fs *faultState, payload interface{}, isMsg bool) {
	if isMsg {
		if m, ok := payload.(*Message); ok {
			inner := m.Payload
			nw.FreeMessage(m)
			payload = inner
		}
	}
	if fs.onDrop != nil && payload != nil {
		fs.onDrop(payload)
	}
}

// interceptGather applies the fault model to one multi-part envelope and
// reports whether it was consumed (dropped or held). The envelope is
// all-or-nothing: a dead endpoint or a drop discards every part, reclaiming
// each pooled Message (and handing each inner payload to the drop handler)
// exactly once; a partition parks the whole envelope so heal re-injects it
// through a single departure. Loss is drawn once per envelope
// — it is one unit on the wire — and no duplicate is drawn for it. parts is
// the sender's scratch list, so the one branch that keeps it copies it.
func (nw *Network) interceptGather(from, to int, parts []*Message, total int, d sim.Duration) bool {
	fs := nw.faults
	if to >= 0 && to < nw.n && fs.dead[to] || from >= 0 && from < nw.n && fs.dead[from] {
		fs.stats.DeadDrops++
		nw.dropParts(fs, parts)
		return true
	}
	lf := fs.links[linkKey{from, to}]
	if lf == nil {
		return false
	}
	if lf.partitioned {
		fs.stats.Held++
		lf.held = append(lf.held, heldMsg{
			from: from, to: to, parts: slices.Clone(parts), size: total,
			d: d, heldAt: nw.eng.Now(),
		})
		return true
	}
	if lf.dropRate > 0 && fs.rng.Float64() < lf.dropRate {
		fs.stats.Dropped++
		nw.dropParts(fs, parts)
		return true
	}
	return false
}

// intercept applies the fault model to one send and reports whether the
// message was consumed (dropped or held). It runs before the link occupancy
// model: a message that never departs must not advance the link clock. isMsg marks payloads that are pooled *Message envelopes.
func (nw *Network) intercept(from, to int, q *sim.Chan, payload interface{}, size int, d sim.Duration, isMsg bool) bool {
	fs := nw.faults
	if to >= 0 && to < nw.n && fs.dead[to] || from >= 0 && from < nw.n && fs.dead[from] {
		fs.stats.DeadDrops++
		nw.dropPayload(fs, payload, isMsg)
		return true
	}
	lf := fs.links[linkKey{from, to}]
	if lf == nil {
		return false
	}
	if lf.partitioned {
		fs.stats.Held++
		lf.held = append(lf.held, heldMsg{
			from: from, to: to, q: q, payload: payload, size: size,
			d: d, isMsg: isMsg, heldAt: nw.eng.Now(),
		})
		return true
	}
	if lf.dropRate > 0 && fs.rng.Float64() < lf.dropRate {
		fs.stats.Dropped++
		nw.dropPayload(fs, payload, isMsg)
		return true
	}
	if lf.dupRate > 0 && isMsg && fs.rng.Float64() < lf.dupRate {
		// The copy takes its turn on the link ahead of the original; the
		// receiving interface discards it.
		fs.stats.Duplicated++
		nw.departure(from, to, size)
	}
	return false
}
