package madeleine

import (
	"fmt"

	"dsmpm2/internal/freelist"
	"dsmpm2/internal/sim"
)

// ChanID is the dense index of an interned logical channel name. Interning
// happens once per distinct name (ChannelID); after that every queue access
// is a slice index instead of a per-message map-of-strings lookup. ID 0 is
// reserved as "unset": no queue answers to it.
type ChanID int

// Message is a unit of communication between nodes. Payload is an arbitrary
// Go value (the simulation does not serialize); Size is the number of bytes
// the value would occupy on the wire and drives the timing model.
//
// Messages sent through the send helpers come from (and return to) the
// network's freelist: receivers that are done with a message may hand it
// back with FreeMessage, and at steady state the message flow allocates
// nothing.
type Message struct {
	From    int
	To      int
	Chan    ChanID // interned logical channel (service)
	Size    int
	Payload interface{}
	SentAt  sim.Time
}

// linkKey identifies one directed link of the topology.
type linkKey struct {
	from, to int
}

// LinkStats aggregates the contention observed on the network's links.
type LinkStats struct {
	// Waits counts messages that found their link busy and queued.
	Waits int
	// WaitTime is the total virtual time messages spent queued on busy
	// links.
	WaitTime sim.Duration
}

// linkCount is the envelope counter of one link profile.
type linkCount struct {
	prof *Profile
	n    int
}

// Network connects n nodes with per-link timing resolved by a Topology. Each
// node owns one inbound queue per logical channel; Send schedules delivery
// events on the sim engine, and a queue's messages go either to simulated
// threads blocking in Recv or to the callback Serve bound it to.
//
// The model charges the sender-to-receiver latency per message. An optional
// link occupancy model (off by default; the paper's latencies are
// single-message costs) serializes each directed (src,dst) link, so
// concurrent page transfers crossing the same link queue FIFO instead of
// overlapping for free, while transfers on disjoint links still overlap.
type Network struct {
	eng  *sim.Engine
	topo Topology
	n    int

	// Channel interning: names map to dense ChanIDs once, and the per-node
	// queues are indexed [node][id] — the per-message map lookup the
	// string-keyed design paid is gone from the send/receive hot path.
	chanIDs   map[string]ChanID
	chanNames []string
	queues    [][]*sim.Chan

	// msgFree recycles Message structs (see Message).
	msgFree freelist.List[*Message]

	// linkModel switches the link occupancy model on (read-only once traffic
	// flows); linkFree records when each directed link frees up, and
	// linkStats the contention counters.
	linkModel bool
	linkFree  map[linkKey]sim.Time
	linkStats LinkStats
	// faults is the fault layer, and the record of which nodes are dead.
	// See fault.go.
	faults faultState
	// Traffic counters.
	msgs      int
	bytes     int64
	envelopes int
	// envByLink classes departed envelopes by the profile of the link they
	// crossed (BIP/Myrinet, the backbone profile of a hierarchical topology,
	// ...). A topology has a handful of profiles, so a send finds its
	// counter by comparing pointers, not by hashing the profile's name. A
	// bench-only diagnostic.
	envByLink []linkCount
	// gather is SendGather's scratch list of the envelope being built.
	gather []*Message
}

// NewNetwork creates a network of n nodes whose per-link costs are resolved
// by topo — a single *Profile for a uniform cluster. A hierarchical topology
// must be built for n nodes.
func NewNetwork(eng *sim.Engine, topo Topology, n int) *Network {
	if n < 1 {
		panic("madeleine: network needs at least 1 node")
	}
	if p, ok := topo.(*Profile); topo == nil || ok && p == nil {
		panic("madeleine: network needs a topology")
	}
	if h, ok := topo.(*Hierarchical); ok && h.Nodes() != n {
		panic(fmt.Sprintf("madeleine: topology %s is built for %d nodes, network has %d", h, h.Nodes(), n))
	}
	return &Network{
		eng:       eng,
		topo:      topo,
		n:         n,
		chanIDs:   make(map[string]ChanID),
		chanNames: []string{""}, // ChanID 0 reserved as "unset"
		queues:    make([][]*sim.Chan, n),
		linkFree:  make(map[linkKey]sim.Time),
		faults: faultState{
			rng:   sim.NewRand(1),
			dead:  make([]bool, n),
			links: make(map[linkKey]*linkFault),
		},
	}
}

// ChannelID interns a logical channel name and returns its dense id. The
// same name always yields the same id; senders and receivers that cache the
// id skip the name lookup entirely.
func (nw *Network) ChannelID(name string) ChanID {
	if id, ok := nw.chanIDs[name]; ok {
		return id
	}
	id := ChanID(len(nw.chanNames))
	nw.chanNames = append(nw.chanNames, name)
	nw.chanIDs[name] = id
	return id
}

// getMsg takes a Message from the freelist (or allocates one).
func (nw *Network) getMsg() *Message {
	if m, ok := nw.msgFree.Get(); ok {
		return m
	}
	return new(Message)
}

// FreeMessage returns a received message to the freelist. Callers must not
// touch the message afterwards; keeping the payload is fine.
func (nw *Network) FreeMessage(m *Message) {
	if m == nil {
		return
	}
	*m = Message{}
	nw.msgFree.Put(m)
}

// SetLinkContention enables or disables per-link bandwidth occupancy.
func (nw *Network) SetLinkContention(on bool) { nw.linkModel = on }

// LinkStats reports the contention counters of the link model.
func (nw *Network) LinkStats() LinkStats { return nw.linkStats }

// Link returns the profile governing messages from src to dst. A sender
// outside the cluster (the driver, src < 0) is charged as dst-local;
// anything else out of range is a caller bug and panics like dst does.
func (nw *Network) Link(src, dst int) *Profile {
	if dst < 0 || dst >= nw.n {
		panic(fmt.Sprintf("madeleine: node %d out of range [0,%d)", dst, nw.n))
	}
	if src >= nw.n {
		panic(fmt.Sprintf("madeleine: node %d out of range [0,%d)", src, nw.n))
	}
	if src < 0 {
		src = dst
	}
	return nw.topo.Link(src, dst)
}

func (nw *Network) queue(node int, ch ChanID) *sim.Chan {
	if node < 0 || node >= nw.n {
		panic(fmt.Sprintf("madeleine: node %d out of range [0,%d)", node, nw.n))
	}
	if ch <= 0 || int(ch) >= len(nw.chanNames) {
		panic(fmt.Sprintf("madeleine: channel id %d not interned", ch))
	}
	qs := nw.queues[node]
	if int(ch) >= len(qs) {
		// Grown to every channel interned so far, whose queues come in one
		// block: a node serves nearly every channel, and a machine interns
		// its channels before it serves them, so one growth makes them all.
		grown := make([]*sim.Chan, len(nw.chanNames))
		copy(grown, qs)
		from := max(len(qs), 1) // id 0 is reserved: it names no queue
		block := make([]sim.Chan, len(grown)-from)
		for i := range block {
			grown[from+i] = &block[i]
		}
		qs = grown
		nw.queues[node] = qs
	}
	return qs[ch]
}

// ChannelName returns the name ch was interned under.
func (nw *Network) ChannelName(ch ChanID) string { return nw.chanNames[ch] }

// Channels reports how many channel ids are interned, the reserved 0
// included: every id is below it.
func (nw *Network) Channels() int { return len(nw.chanNames) }

// SendAfter delivers msg to its destination after latency d. Sends to the
// local node are delivered with the same latency: loopback communication in
// PM2 still crosses the RPC machinery. With the link model enabled, the
// message first waits for its link to free and occupies it for its byte time;
// the sender itself never blocks (PM2 sends are asynchronous, the queueing
// happens in the interface).
func (nw *Network) SendAfter(msg *Message, d sim.Duration) {
	msg.SentAt = nw.eng.Now()
	nw.msgs++
	nw.bytes += int64(msg.Size)
	nw.countEnvelope(msg.From, msg.To)
	q := nw.queue(msg.To, msg.Chan)
	if nw.faulted(msg.From, msg.To) {
		nw.intercept(heldMsg{from: msg.From, to: msg.To, q: q, payload: msg, size: msg.Size, d: d, isMsg: true})
		return
	}
	depart := nw.departure(msg.From, msg.To, msg.Size)
	nw.eng.SchedulePush(depart.Add(d), q, msg)
}

// GatherPart is one component of a multi-part envelope: a payload bound for
// one logical channel of the destination, with its own wire size.
type GatherPart struct {
	Chan    ChanID
	Size    int
	Payload interface{}
}

// SendGather ships parts from->to as ONE wire envelope: the summed byte size
// crosses the link occupancy model exactly once (a single departure), the
// whole batch is charged latency d once, and on arrival the parts scatter to
// their per-channel inbound queues in part order. This is the scatter/gather
// primitive the batched DSM communication path rides on — N page operations
// leave the interface as one message instead of N.
//
// The fault model treats the envelope as a unit: a dead endpoint discards
// every part (each pooled Message reclaimed exactly once), a partition or a
// lost transmission holds and later re-injects the whole envelope, and a
// lossy link draws its loss once per transmission and no duplicate. parts is
// the caller's again on return.
func (nw *Network) SendGather(from, to int, parts []GatherPart, d sim.Duration) {
	if len(parts) == 0 {
		return
	}
	now := nw.eng.Now()
	total := 0
	msgs := nw.gather[:0]
	for _, p := range parts {
		total += p.Size
		m := nw.getMsg()
		*m = Message{From: from, To: to, Chan: p.Chan,
			Size: p.Size, Payload: p.Payload, SentAt: now}
		msgs = append(msgs, m)
	}
	nw.gather = msgs
	nw.msgs += len(parts)
	nw.bytes += int64(total)
	nw.countEnvelope(from, to)
	if nw.faulted(from, to) {
		nw.intercept(heldMsg{from: from, to: to, parts: msgs, size: total, d: d})
		return
	}
	nw.deliverGather(from, to, msgs, total, d)
}

// deliverGather performs the fault-free half of a gather send: one departure
// for the whole envelope, then one queue push per part at the arrival time.
func (nw *Network) deliverGather(from, to int, parts []*Message, total int, d sim.Duration) {
	at := nw.departure(from, to, total).Add(d)
	for _, m := range parts {
		nw.eng.SchedulePush(at, nw.queue(to, m.Chan), m)
	}
}

// departure resolves when a message of size bytes from from to to leaves the
// sending interface: now, or with the link model enabled once its link is
// free, which it then occupies for its transmit time. The sender itself never
// blocks (PM2 sends are asynchronous, the queueing happens in the interface).
func (nw *Network) departure(from, to, size int) sim.Time {
	depart := nw.eng.Now()
	if nw.linkModel && from >= 0 && from < nw.n {
		key := linkKey{from, to}
		if free := nw.linkFree[key]; free > depart {
			nw.linkStats.Waits++
			nw.linkStats.WaitTime += free.Sub(depart)
			depart = free
		}
		nw.linkFree[key] = depart.Add(sim.Duration(float64(size) * nw.topo.Link(from, to).PerByte))
	}
	return depart
}

// SendCtrlID sends a small control message (request, invalidation, ack) on
// a pre-interned channel, charged at the link's CtrlMsg latency.
func (nw *Network) SendCtrlID(from, to int, ch ChanID, payload interface{}) {
	m := nw.getMsg()
	*m = Message{From: from, To: to, Chan: ch, Size: 64, Payload: payload}
	nw.SendAfter(m, nw.Link(from, to).CtrlMsg)
}

// SendID sends a pooled message on a pre-interned channel with an explicit
// latency (the RPC layer computes half-round-trip costs itself).
func (nw *Network) SendID(from, to int, ch ChanID, size int, payload interface{}, d sim.Duration) {
	m := nw.getMsg()
	*m = Message{From: from, To: to, Chan: ch, Size: size, Payload: payload}
	nw.SendAfter(m, d)
}

// SendBulkID sends size payload bytes (for example a page or a diff list) on
// a pre-interned channel, charged at the link's Transfer(size) latency.
func (nw *Network) SendBulkID(from, to int, ch ChanID, size int, payload interface{}) {
	m := nw.getMsg()
	*m = Message{From: from, To: to, Chan: ch, Size: size, Payload: payload}
	nw.SendAfter(m, nw.Link(from, to).Transfer(size))
}

// SendDirect delivers payload into a caller-provided queue after latency d,
// bypassing the per-node channel tables. RPC replies use this: the caller
// owns a private reply queue, so no channel naming is needed; the caller
// computes d from the link it is answering over. Replies are subject to the
// same link occupancy model as named-channel traffic — a reply crossing a
// saturated link queues exactly like the request did.
func (nw *Network) SendDirect(from, to int, q *sim.Chan, size int, payload interface{}, d sim.Duration) {
	nw.msgs++
	nw.bytes += int64(size)
	nw.countEnvelope(from, to)
	if nw.faulted(from, to) {
		nw.intercept(heldMsg{from: from, to: to, q: q, payload: payload, size: size, d: d})
		return
	}
	depart := nw.departure(from, to, size)
	nw.eng.SchedulePush(depart.Add(d), q, payload)
}

// RecvID is Recv for a pre-interned channel.
func (nw *Network) RecvID(p *sim.Proc, node int, ch ChanID) *Message {
	return nw.queue(node, ch).Recv(p).(*Message)
}

// Serve binds node's inbound queue for ch to fn: every message arriving there
// is handed to fn by the event loop, in arrival order and in engine context,
// instead of waiting for a Recv (see sim.Chan.SetSink). fn receives each as a
// *Message and owns it, as a receiver would. The binding ends when the node
// crashes, or on Unserve; binding again takes the same fn, so a consumer that
// binds often keeps it rather than allocating a closure each time.
func (nw *Network) Serve(node int, ch ChanID, fn func(msg interface{})) {
	nw.queue(node, ch).SetSink(nw.eng, fn)
}

// Unserve unbinds node's inbound queue for ch, as a busy receiver: messages
// arriving there wait for TryRecvID, with no event, until Serve binds it again.
func (nw *Network) Unserve(node int, ch ChanID) { nw.queue(node, ch).ClearSink() }

// TryRecvID is TryRecv for a pre-interned channel.
func (nw *Network) TryRecvID(node int, ch ChanID) (*Message, bool) {
	v, ok := nw.queue(node, ch).TryRecv()
	if !ok {
		return nil, false
	}
	return v.(*Message), true
}

// Stats reports cumulative message and byte counts.
func (nw *Network) Stats() (messages int, bytes int64) { return nw.msgs, nw.bytes }

// Envelopes reports the cumulative number of wire envelopes that departed:
// every plain send (named-channel or direct) counts one, and a multi-part
// gather counts one regardless of how many parts it carries. The spread
// between Stats' message count and this counter is exactly what batching
// saved.
func (nw *Network) Envelopes() int { return nw.envelopes }

// countEnvelope bumps the total and the per-link-class envelope counters for
// one departure on the from->to link.
func (nw *Network) countEnvelope(from, to int) {
	nw.envelopes++
	prof := nw.Link(from, to)
	for i := range nw.envByLink {
		if nw.envByLink[i].prof == prof {
			nw.envByLink[i].n++
			return
		}
	}
	nw.envByLink = append(nw.envByLink, linkCount{prof, 1})
}

// EnvelopesByLink classes the departed envelopes by the profile name of the
// link they crossed (summed over profiles sharing a name). On a hierarchical
// topology this splits intra-cluster traffic from backbone traffic. Purely
// diagnostic.
func (nw *Network) EnvelopesByLink() map[string]int {
	out := make(map[string]int)
	for _, c := range nw.envByLink {
		out[c.prof.Name] += c.n
	}
	return out
}
