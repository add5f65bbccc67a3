package madeleine

import (
	"fmt"
	"math/rand"
	"slices"

	"dsmpm2/internal/sim"
)

// Network-level fault state. Every network carries it, and it is the one
// record of which nodes are dead: the PM2 runtime and the DSM read it through
// Dead. A send between live nodes on a link with no fault state goes out as
// if no fault layer were there, after a few compares (see faulted).
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
//   - a lossy link loses or duplicates each transmission independently with
//     the configured probabilities, drawn from the fault layer's private PRNG
//     so the engine's own random stream — and therefore the fault-free
//     portion of the replay — is untouched. A lost transmission is not a lost
//     message: the link sends it again one retransmission timeout later (its
//     own latency plus an acknowledgement's) and draws again, and the
//     traffic behind it waits in the link's hold queue, as behind a
//     partition. A duplicate occupies the link like the original but is never
//     delivered. The layers above thus see reliable FIFO links that are
//     sometimes slow, as over the transports Madeleine runs on (BIP, SISCI,
//     TCP).

// FaultStats aggregates the fault layer's counters.
type FaultStats struct {
	// DeadDrops counts messages dropped because an endpoint was dead.
	DeadDrops int
	// Dropped counts messages held on a link when an endpoint crashed.
	Dropped int
	// Retransmits counts transmissions lossy links lost and sent again.
	Retransmits int
	// Duplicated counts extra copies lossy links put on the wire (and the
	// receiver discarded).
	Duplicated int
	// Held counts messages queued on a partitioned link or behind a lost
	// transmission.
	Held int
	// HeldTime is the total virtual time held messages spent waiting for
	// their link to carry them — the fault-induced latency the timing reports
	// attribute to the link (it surfaces in FaultTiming.Transfer and
	// TimingLog.ByLink automatically, since transfer time is measured
	// send-to-receive).
	HeldTime sim.Duration
	// Crashes and Restarts count node fault events applied: this layer is
	// the one that counts them.
	Crashes  int
	Restarts int
}

// heldMsg is one message parked on a link. A multi-part envelope
// (SendGather) is held as a unit: parts is non-nil, q/payload are unused, and
// the link re-injects the whole envelope through one departure.
type heldMsg struct {
	from    int
	to      int
	q       *sim.Chan
	payload interface{}
	size    int
	d       sim.Duration // arrival latency, charged from the departure
	isMsg   bool         // payload is a pooled *Message owned by this network
	parts   []*Message   // multi-part envelope held as a unit
	heldAt  sim.Time
}

// discard reclaims a held message that will never be delivered: each pooled
// Message (and its inner payload, via the drop handler) exactly once.
func (nw *Network) discard(hm *heldMsg) {
	if hm.parts == nil {
		nw.dropPayload(hm.payload, hm.isMsg)
		return
	}
	for _, m := range hm.parts {
		nw.dropPayload(m, true)
	}
}

// linkFault is the fault state of one directed link. It is the call record
// of its own retransmission timer (see Fire).
type linkFault struct {
	nw          *Network
	partitioned bool
	// resending marks the timer in the calendar: the head of held was lost
	// and goes out again when it fires.
	resending bool
	dropRate  float64
	dupRate   float64
	held      []heldMsg
}

// faultState is the fault layer.
type faultState struct {
	rng    *rand.Rand
	dead   []bool
	links  map[linkKey]*linkFault
	onDrop func(payload interface{})
	stats  FaultStats
}

// SeedLoss seeds the private PRNG behind probabilistic loss (zero means 1,
// the seed a network starts with). The engine's own random stream, and so
// the fault-free portion of a replay, is untouched by its draws.
func (nw *Network) SeedLoss(seed int64) {
	if seed == 0 {
		seed = 1
	}
	nw.faults.rng = sim.NewRand(seed)
}

// Dead reports whether node n is currently crashed. It is the one record of
// liveness: the layers above ask it on their hot paths, so while no node is
// dead (Crashes and Restarts balance) it reads no per-node state.
func (nw *Network) Dead(n int) bool {
	fs := &nw.faults
	return fs.stats.Crashes != fs.stats.Restarts && n >= 0 && n < nw.n && fs.dead[n]
}

// FaultStats returns the fault layer's counters.
func (nw *Network) FaultStats() FaultStats { return nw.faults.stats }

// SetDropHandler installs fn, called exactly once with the payload of every
// message the fault layer discards, after the network has reclaimed its own
// *Message envelope. The PM2 runtime uses it to return pooled pm2.Request
// envelopes to their freelist; without a handler dropped payloads are simply
// left to the garbage collector.
func (nw *Network) SetDropHandler(fn func(payload interface{})) { nw.faults.onDrop = fn }

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
// orphaned queues of the dead incarnation), and messages held on its links,
// either way, are discarded.
func (nw *Network) CrashNode(n int) {
	fs := &nw.faults
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
			nw.dropPayload(v, true)
		}
	}
	nw.sweepHeld(n)
}

// sweepHeld discards the messages held on links to or from node n: a
// delivery to a corpse is a drop, and nothing the dead incarnation sent may
// surface later (a held lock-acquire delivered after the node restarts would
// hand a ghost request resources its sender can never use).
func (nw *Network) sweepHeld(n int) {
	for _, lf := range nw.faults.links {
		kept := lf.held[:0]
		for _, hm := range lf.held {
			if hm.to == n || hm.from == n {
				nw.discard(&hm)
				nw.faults.stats.Dropped++
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
	fs := &nw.faults
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
func (nw *Network) link(from, to int) *linkFault {
	fs := &nw.faults
	key := linkKey{from, to}
	lf := fs.links[key]
	if lf == nil {
		lf = &linkFault{nw: nw}
		fs.links[key] = lf
	}
	return lf
}

// PartitionLink cuts the directed link from->to.
func (nw *Network) PartitionLink(from, to int) {
	nw.link(from, to).partitioned = true
}

// HealLink restores the directed link from->to: held messages go out in
// FIFO order with their original latency charged from now.
func (nw *Network) HealLink(from, to int) {
	lf := nw.faults.links[linkKey{from, to}]
	if lf == nil || !lf.partitioned {
		return
	}
	lf.partitioned = false
	lf.flush()
}

// SetLinkLoss makes the directed link lossy: each transmission is
// independently lost with probability dropRate (and sent again, see lose)
// and duplicated with probability dupRate (a duplicate costs link time, never
// a second delivery). Zero rates restore reliability.
func (nw *Network) SetLinkLoss(from, to int, dropRate, dupRate float64) {
	lf := nw.link(from, to)
	lf.dropRate = dropRate
	lf.dupRate = dupRate
}

// dropPayload reclaims a discarded message: the network's own pooled
// envelope is freed exactly once, and the inner payload is handed to the
// drop handler exactly once so upper layers can reclaim their envelopes.
// The payload-extraction order matters: FreeMessage zeroes the Message, so
// the inner payload is captured first.
func (nw *Network) dropPayload(payload interface{}, isMsg bool) {
	if isMsg {
		if m, ok := payload.(*Message); ok {
			inner := m.Payload
			nw.FreeMessage(m)
			payload = inner
		}
	}
	if onDrop := nw.faults.onDrop; onDrop != nil && payload != nil {
		onDrop(payload)
	}
}

// faulted reports whether a send from->to meets the fault model: an endpoint
// is dead, or the link has fault state. Any other send goes straight out,
// and while no node is dead and no link has fault state that costs two
// compares.
func (nw *Network) faulted(from, to int) bool {
	fs := &nw.faults
	if fs.stats.Crashes == fs.stats.Restarts && len(fs.links) == 0 {
		return false
	}
	return nw.Dead(from) || nw.Dead(to) || fs.links[linkKey{from, to}] != nil
}

// intercept applies the fault model to a send that faulted: a dead
// endpoint's message is discarded, one on a cut link, behind a held one or
// lost is held (the link clock does not move), and the rest go out at once.
// A multi-part envelope is one unit on the wire: it is discarded, held and
// lost whole, with no duplicate. hm.parts is the sender's scratch list, so
// the queue copies it.
func (nw *Network) intercept(hm heldMsg) {
	fs := &nw.faults
	if nw.Dead(hm.to) || nw.Dead(hm.from) {
		fs.stats.DeadDrops++
		nw.discard(&hm)
		return
	}
	lf := fs.links[linkKey{hm.from, hm.to}]
	hm.heldAt = nw.eng.Now()
	if blocked := lf.partitioned || lf.resending || len(lf.held) > 0; blocked || lf.lose(&hm) {
		if blocked {
			fs.stats.Held++
		}
		if hm.parts != nil {
			hm.parts = slices.Clone(hm.parts)
		}
		lf.held = append(lf.held, hm)
		return
	}
	lf.transmit(&hm)
}

// lose draws whether the link loses this transmission of hm. A lost one is
// sent again one retransmission timeout from now: the time the sender would
// have waited for its acknowledgement, hm's own latency plus a control
// message's. Until then the link holds everything behind it.
func (lf *linkFault) lose(hm *heldMsg) bool {
	fs := &lf.nw.faults
	if lf.dropRate == 0 || fs.rng.Float64() >= lf.dropRate {
		return false
	}
	fs.stats.Retransmits++
	lf.resending = true
	eng := lf.nw.eng
	eng.ScheduleCall(eng.Now().Add(hm.d+lf.nw.Link(hm.from, hm.to).CtrlMsg), lf)
	return true
}

// Fire is the retransmission timer: the lost head of the queue goes out
// again, with whatever waited behind it.
func (lf *linkFault) Fire() {
	lf.resending = false
	lf.flush()
}

// flush transmits the held messages in FIFO order until the queue is empty,
// the link is cut, or a transmission is lost and waits for its timer.
func (lf *linkFault) flush() {
	sent := 0
	for _, hm := range lf.held {
		if lf.partitioned || lf.resending || lf.lose(&hm) {
			break
		}
		sent++
		lf.transmit(&hm)
	}
	lf.held = slices.Delete(lf.held, 0, sent)
}

// transmit puts hm on the wire now, through the occupancy clock like any
// send. A plain message may be duplicated: the copy takes its turn on the
// link ahead of the original, and the receiving interface discards it.
func (lf *linkFault) transmit(hm *heldMsg) {
	nw, fs := lf.nw, &lf.nw.faults
	fs.stats.HeldTime += nw.eng.Now().Sub(hm.heldAt)
	if hm.parts != nil {
		nw.deliverGather(hm.from, hm.to, hm.parts, hm.size, hm.d)
		return
	}
	if lf.dupRate > 0 && hm.isMsg && fs.rng.Float64() < lf.dupRate {
		fs.stats.Duplicated++
		nw.departure(hm.from, hm.to, hm.size)
	}
	nw.eng.SchedulePush(nw.departure(hm.from, hm.to, hm.size).Add(hm.d), hm.q, hm.payload)
}
