package madeleine

import (
	"fmt"
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
//   - a partitioned link either queues its traffic until the link heals
//     (PartitionQueue, the default — models a transient partition with
//     reliable transport underneath) or drops it (PartitionDrop);
//   - a lossy link drops or duplicates each message independently with the
//     configured probabilities, drawn from the fault layer's private PRNG so
//     the engine's own random stream — and therefore the fault-free portion
//     of the replay — is untouched.
//
// On a sharded network the fault state is per shard: each shard holds its
// own dead-node view (consulted at its own senders' interfaces), and link
// fault state lives on the shard that owns the sending node. Fault events
// must then be applied through ApplyFault from a ShardedEngine.InjectFaults
// fanout, which delivers every event to every shard at the same virtual
// time; the direct mutators (CrashNode, PartitionLink, ...) are a
// single-loop API and panic when sharded.

// PartitionPolicy selects what happens to messages sent over a partitioned
// link.
type PartitionPolicy int

const (
	// PartitionQueue holds messages and re-injects them, FIFO per link,
	// when the link heals.
	PartitionQueue PartitionPolicy = iota
	// PartitionDrop discards messages sent over a partitioned link.
	PartitionDrop
)

// FaultStats aggregates the fault layer's counters.
type FaultStats struct {
	// DeadDrops counts messages dropped because an endpoint was dead.
	DeadDrops int
	// Dropped counts messages discarded by partitions or lossy links.
	Dropped int
	// Duplicated counts extra copies injected by lossy links.
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

// faultState is one shard's fault layer (nil when faults are disabled).
// The loss PRNG is a counted stream so a checkpoint can record how many
// draws the run consumed and a restore can fast-forward a fresh stream to
// the same point (see snapshot.go); the values drawn are bit-identical to
// the plain rand.Rand this replaced.
type faultState struct {
	rng    *sim.CountedRand
	policy PartitionPolicy
	dead   []bool
	links  map[linkKey]*linkFault
	onDrop func(payload interface{})
	dup    func(payload interface{}) interface{}
	stats  FaultStats
}

// EnableFaults switches the fault layer on. seed drives the private PRNG
// behind probabilistic loss (zero means 1); policy selects the partition
// behaviour. Enabling faults on a quiet network is free until a fault is
// actually injected. On a sharded network every shard gets its own fault
// state (and its own PRNG, derived from seed), so call this before Run.
func (nw *Network) EnableFaults(seed int64, policy PartitionPolicy) {
	if seed == 0 {
		seed = 1
	}
	for i, st := range nw.shs {
		st.faults = &faultState{
			rng:    sim.NewCountedRand(seed + int64(i)),
			policy: policy,
			dead:   make([]bool, nw.n),
			links:  make(map[linkKey]*linkFault),
		}
	}
}

// FaultsEnabled reports whether the fault layer is on.
func (nw *Network) FaultsEnabled() bool { return nw.shs[0].faults != nil }

// FaultStats returns the fault layer's counters (zero value when disabled),
// summed over shards.
func (nw *Network) FaultStats() FaultStats {
	var out FaultStats
	for _, st := range nw.shs {
		fs := st.faults
		if fs == nil {
			continue
		}
		out.DeadDrops += fs.stats.DeadDrops
		out.Dropped += fs.stats.Dropped
		out.Duplicated += fs.stats.Duplicated
		out.Held += fs.stats.Held
		out.HeldTime += fs.stats.HeldTime
		out.Crashes += fs.stats.Crashes
		out.Restarts += fs.stats.Restarts
	}
	return out
}

// SetDropHandler installs fn, called exactly once with the payload of every
// message the fault layer discards, after the network has reclaimed its own
// *Message envelope. The PM2 runtime uses it to return pooled rpcReq
// envelopes to their freelist; without a handler dropped payloads are simply
// left to the garbage collector. On a sharded network fn may be called from
// any shard's goroutine (only ever one at a time per discarded message).
func (nw *Network) SetDropHandler(fn func(payload interface{})) {
	nw.mustFaults("SetDropHandler")
	for _, st := range nw.shs {
		st.faults.onDrop = fn
	}
}

// SetDupHandler installs fn, called to produce an independent copy of a
// payload when a lossy link duplicates a message. Returning nil vetoes the
// duplication (the message is delivered once). Only named-channel messages
// are ever duplicated; direct sends (RPC replies, acks) are not, because
// their receivers own the reply queue and cannot distinguish copies.
func (nw *Network) SetDupHandler(fn func(payload interface{}) interface{}) {
	nw.mustFaults("SetDupHandler")
	for _, st := range nw.shs {
		st.faults.dup = fn
	}
}

func (nw *Network) mustFaults(op string) *faultState {
	fs := nw.shs[0].faults
	if fs == nil {
		panic("madeleine: " + op + " before EnableFaults")
	}
	return fs
}

// mustFaultsLocal is mustFaults for the direct single-loop mutators, which
// touch exactly one shard's state and therefore cannot be used on a sharded
// network (use ApplyFault from a ShardedEngine.InjectFaults fanout instead).
func (nw *Network) mustFaultsLocal(op string) *faultState {
	if nw.se != nil {
		panic("madeleine: " + op + " on a sharded network; inject a fault plan (ApplyFault) instead")
	}
	return nw.mustFaults(op)
}

// NodeDead reports whether node n is currently crashed. On a sharded
// network this reads shard 0's view; call it from shard 0's simulation
// context (or after Run), or use NodeDeadOn from other shards.
func (nw *Network) NodeDead(n int) bool {
	return nw.NodeDeadOn(0, n)
}

// NodeDeadOn reports whether node n is currently crashed as seen by shard
// (every shard converges on the same view at the fault's virtual time).
func (nw *Network) NodeDeadOn(shard, n int) bool {
	fs := nw.shs[shard].faults
	return fs != nil && n >= 0 && n < nw.n && fs.dead[n]
}

// faultShard reports which shard owns the fault state of the directed link
// from->to: the sending node's shard, or the destination's when the sender
// is outside the cluster (the driver). Always 0 unsharded.
func (nw *Network) faultShard(from, to int) int {
	if nw.shardOf == nil {
		return 0
	}
	if from >= 0 && from < nw.n {
		return nw.shardOf[from]
	}
	return nw.shardOf[to]
}

// ApplyFault applies one fault-plan event on behalf of shard. It must run in
// that shard's simulation context and only touches that shard's state; a
// ShardedEngine.InjectFaults fanout delivers every event to every shard at
// the event's virtual time, which is exactly the contract this needs (a
// crash must flip every shard's dead-node view, since each shard checks
// liveness at its own senders' interfaces). It also works unsharded (shard
// 0), where it is equivalent to the direct mutators.
func (nw *Network) ApplyFault(shard int, ev sim.FaultEvent) {
	fs := nw.shs[shard].faults
	if fs == nil {
		panic("madeleine: ApplyFault before EnableFaults")
	}
	switch ev.Kind {
	case sim.FaultNodeCrash:
		nw.crashNodeOn(shard, fs, ev.Node)
	case sim.FaultNodeRestart:
		nw.restartNodeOn(shard, fs, ev.Node)
	case sim.FaultLinkPartition:
		if nw.faultShard(ev.From, ev.To) == shard {
			fs.link(ev.From, ev.To).partitioned = true
		}
	case sim.FaultLinkHeal:
		if nw.faultShard(ev.From, ev.To) == shard {
			nw.healLinkOn(shard, fs, ev.From, ev.To)
		}
	case sim.FaultLinkLoss:
		if nw.faultShard(ev.From, ev.To) == shard {
			lf := fs.link(ev.From, ev.To)
			lf.dropRate = ev.DropRate
			lf.dupRate = ev.DupRate
		}
	default:
		panic(fmt.Sprintf("madeleine: unknown fault kind %d", ev.Kind))
	}
}

// engOf returns the engine of shard (the network's engine unsharded).
func (nw *Network) engOf(shard int) *sim.Engine {
	if nw.se == nil {
		return nw.eng
	}
	return nw.se.Shard(shard)
}

// CrashNode fail-stops node n: subsequent messages to or from it are
// dropped, its inbound queues are replaced (in-flight deliveries land in the
// orphaned queues of the dead incarnation), and messages already held for it
// on partitioned links are discarded. Single-loop API; sharded networks
// apply fault plans instead.
func (nw *Network) CrashNode(n int) {
	nw.crashNodeOn(0, nw.mustFaultsLocal("CrashNode"), n)
}

func (nw *Network) crashNodeOn(shard int, fs *faultState, n int) {
	if n < 0 || n >= nw.n {
		panic(fmt.Sprintf("madeleine: crash of node %d out of range [0,%d)", n, nw.n))
	}
	if fs.dead[n] {
		return
	}
	fs.dead[n] = true
	// The node's shard owns the crash bookkeeping: the counter, and the
	// queue replacement (only deliveries scheduled on the owning shard can
	// still be in flight to the node's queues — cross-shard sends check
	// the sender-side dead view first).
	if nw.faultShard(n, n) != shard {
		// Still sweep this shard's own held links below: messages parked
		// on a partitioned link whose sender lives here may target n.
		nw.sweepHeld(fs, n)
		return
	}
	fs.stats.Crashes++
	// Old queues are orphaned, not drained: deliveries already scheduled on
	// the engine hold pointers to them and must not reach the node's next
	// incarnation. Pending messages they contain are reclaimed now, and a
	// served queue (see Serve) is unbound, so that neither such a delivery nor
	// a drain record still pending at this instant starts a handler for the
	// dead incarnation: the sink stops consuming as a killed receiver would.
	if nw.se != nil {
		nw.nameMu.Lock()
	}
	old := nw.queues[n]
	nw.queues[n] = make([]*sim.Chan, 0)
	if nw.se != nil {
		nw.nameMu.Unlock()
	}
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

// sweepHeld discards messages parked on this shard's partitioned links to or
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
// upper layers' recovery problem. Single-loop API; sharded networks apply
// fault plans instead.
func (nw *Network) RestartNode(n int) {
	nw.restartNodeOn(0, nw.mustFaultsLocal("RestartNode"), n)
}

func (nw *Network) restartNodeOn(shard int, fs *faultState, n int) {
	if n < 0 || n >= nw.n {
		panic(fmt.Sprintf("madeleine: restart of node %d out of range [0,%d)", n, nw.n))
	}
	if !fs.dead[n] {
		return
	}
	fs.dead[n] = false
	if nw.faultShard(n, n) == shard {
		fs.stats.Restarts++
	}
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

// PartitionLink cuts the directed link from->to. Single-loop API; sharded
// networks apply fault plans instead.
func (nw *Network) PartitionLink(from, to int) {
	nw.mustFaultsLocal("PartitionLink").link(from, to).partitioned = true
}

// HealLink restores the directed link from->to, re-injecting any held
// messages in FIFO order with their original latency charged from now.
// Single-loop API; sharded networks apply fault plans instead.
func (nw *Network) HealLink(from, to int) {
	nw.healLinkOn(0, nw.mustFaultsLocal("HealLink"), from, to)
}

func (nw *Network) healLinkOn(shard int, fs *faultState, from, to int) {
	lf := fs.links[linkKey{from, to}]
	if lf == nil || !lf.partitioned {
		return
	}
	lf.partitioned = false
	held := lf.held
	lf.held = nil
	eng := nw.engOf(shard)
	st := nw.shs[shard]
	now := eng.Now()
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
		// Re-inject through the occupancy clocks: a healed burst pays the
		// same NIC/link serialization a normally-sent burst would.
		if hm.parts != nil {
			nw.deliverGather(eng, st, hm.from, hm.to, hm.parts, hm.size, hm.d)
			continue
		}
		depart := nw.departure(eng, st, hm.from, hm.to, hm.size)
		nw.pushAt(eng, hm.to, depart.Add(hm.d), hm.q, hm.payload)
	}
}

// SetLinkLoss makes the directed link lossy: each message is independently
// dropped with probability dropRate and duplicated with probability dupRate.
// Zero rates restore reliability. Single-loop API; sharded networks apply
// fault plans instead.
func (nw *Network) SetLinkLoss(from, to int, dropRate, dupRate float64) {
	lf := nw.mustFaultsLocal("SetLinkLoss").link(from, to)
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
// exactly once; a queueing partition parks the whole envelope so heal
// re-injects it through a single departure. Loss is drawn once per envelope
// — it is one unit on the wire — and duplication never applies (the parts
// share coalesced-reply state that must complete exactly once). parts is the
// sender's scratch list, so the one branch that keeps it copies it.
func (nw *Network) interceptGather(eng *sim.Engine, st *netShard, from, to int, parts []*Message, total int, d sim.Duration) bool {
	fs := st.faults
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
		if fs.policy == PartitionDrop {
			fs.stats.Dropped++
			nw.dropParts(fs, parts)
			return true
		}
		fs.stats.Held++
		lf.held = append(lf.held, heldMsg{
			from: from, to: to, parts: slices.Clone(parts), size: total,
			d: d, heldAt: eng.Now(),
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
// message was consumed (dropped or held). It runs before the occupancy
// models: a message that never departs must not advance the NIC/link
// clocks. isMsg marks payloads that are pooled *Message envelopes.
func (nw *Network) intercept(eng *sim.Engine, st *netShard, from, to int, q *sim.Chan, payload interface{}, size int, d sim.Duration, isMsg bool) bool {
	fs := st.faults
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
		if fs.policy == PartitionDrop {
			fs.stats.Dropped++
			nw.dropPayload(fs, payload, isMsg)
			return true
		}
		fs.stats.Held++
		lf.held = append(lf.held, heldMsg{
			from: from, to: to, q: q, payload: payload, size: size,
			d: d, isMsg: isMsg, heldAt: eng.Now(),
		})
		return true
	}
	if lf.dropRate > 0 && fs.rng.Float64() < lf.dropRate {
		fs.stats.Dropped++
		nw.dropPayload(fs, payload, isMsg)
		return true
	}
	if lf.dupRate > 0 && isMsg && fs.rng.Float64() < lf.dupRate {
		if m, ok := payload.(*Message); ok && fs.dup != nil {
			if inner := fs.dup(m.Payload); inner != nil {
				m2 := nw.getMsg()
				*m2 = *m
				m2.Payload = inner
				fs.stats.Duplicated++
				depart := nw.departure(eng, st, from, to, m2.Size)
				nw.pushAt(eng, to, depart.Add(d), q, m2)
			}
		}
	}
	return false
}
