package pm2

import (
	"fmt"
	"strconv"
	"strings"

	"dsmpm2/internal/freelist"
	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// Handler is the body of an RPC service. It runs in a thread on the node
// that registered the service; its return value travels back to a
// synchronous caller (and is discarded for one-way invocations).
type Handler func(h *Thread, arg interface{}) interface{}

// QuickHandler is the body of a quick service (see RegisterQuick). It runs in
// engine context, on no thread, so it must not block. It returns either the
// result to reply with now, or kept true: the handler holds on to r and
// completes it later, exactly once, with Answer.
type QuickHandler func(r *Request, arg interface{}) (res interface{}, kept bool)

// service is a registered RPC service on one node.
type service struct {
	chanID   madeleine.ChanID
	handler  Handler
	quick    QuickHandler // set instead of handler for a quick service
	threaded bool
	node     *Node
	// threadName names the service's handler threads, formatted once at
	// the first (see deliver) rather than per invocation, and not at all
	// for a service that never runs.
	threadName string
	// free holds the descriptors of handler threads that have returned (see
	// deliver). Only the node's engine context touches it, so it needs no lock.
	free freelist.List[*Thread]
}

// Request is one invocation on the wire and, for a quick service, the call
// record that runs it (see Fire). Requests are pooled on the Runtime: the
// service releases one after its reply, so at steady state the RPC machinery
// allocates no request envelopes.
type Request struct {
	arg     interface{} // the argument; a quick request's result once answered
	reply   *sim.Chan   // nil for one-way invocations
	retSize int
	from    int

	// join links the request into a vector invocation: the handler's
	// completion counts down the call instead of sending its own reply, and
	// the last element's completion sends the single coalesced reply. idx is
	// this element's position in the vector (its result slot).
	join *VecCall
	idx  int

	// A quick request's service and the incarnation (Node.Restarts) of the
	// node it was delivered to; answered marks one whose result is in arg.
	svc      *service
	inc      int
	answered bool
}

// VecCall is one vector invocation awaiting its reply (StartVecFrom): the join
// its elements' completions count down, the buffers the send was built in and
// the queue the one coalesced reply — the call itself — arrives on. The caller
// owns it: receive the reply, read the results, Release, and the node's next
// vector reuses the object, grown buffers and reply rings included. A call
// whose caller stopped waiting (its destination died) is never released, so its
// late reply lingers unread in a queue nothing else uses.
type VecCall struct {
	node      *Node // the caller's, whose free list the call returns to
	remaining int
	results   []interface{}
	parts     []madeleine.GatherPart
	reply     sim.Chan
	retSize   int
}

// Reply is the queue c's reply arrives on, once every handler completed;
// results holds their results in element order from then until Release.
func (c *VecCall) Reply() *sim.Chan { return &c.reply }

// Release hands c back to its node once the reply has been consumed.
func (c *VecCall) Release() {
	if c.remaining != 0 || c.reply.Len() != 0 {
		panic("pm2: VecCall released before its reply was consumed")
	}
	clear(c.results)
	c.node.vecFree.Put(c)
}

// getReq takes a request envelope from the freelist (or allocates one).
func (rt *Runtime) getReq() *Request {
	if r, ok := rt.reqFree.Get(); ok {
		return r
	}
	return new(Request)
}

// putReq returns a request envelope to the freelist.
func (rt *Runtime) putReq(r *Request) {
	*r = Request{}
	rt.reqFree.Put(r)
}

// ServiceID resolves (and caches) the interned channel id of a service name.
// A caller that sends to a service often resolves it once and sends by id
// (CallID, AsyncFrom, VecElem), so no message hashes a name.
func (rt *Runtime) ServiceID(name string) madeleine.ChanID {
	if id, ok := rt.svcIDs[name]; ok {
		return id
	}
	id := rt.net.ChannelID("rpc:" + name) // the request channel of service name
	rt.svcIDs[name] = id
	return id
}

// Register installs an RPC service on the node; the event loop starts a
// handler thread as a request arrives. If threaded is true, each invocation
// gets a thread of its own, so invocations proceed concurrently (this is how
// DSM-PM2's page servers stay reactive); otherwise the service is serial: one
// thread handles requests one at a time, in arrival order, until none is
// left. A handler that never blocks needs no thread: see RegisterQuick.
func (n *Node) Register(name string, threaded bool, h Handler) {
	n.register(name, service{handler: h, threaded: threaded})
}

// RegisterQuick installs a quick service: the event loop runs h on each
// request in engine context, with no thread, as PM2 runs a handler that needs
// no stack of its own. What h can do without blocking — answer from manager
// state, or queue the request and Answer it when another request frees what
// it waits for — costs no coroutine switch at all. Every call record takes
// the queue slot a handler thread's wake would have, so a quick service and a
// threaded one with the same handler cannot be told apart in virtual time,
// event count or message order.
func (n *Node) RegisterQuick(name string, h QuickHandler) {
	n.register(name, service{quick: h})
}

// register installs svc under name. A machine interns its service names
// before it registers them, in the order it registers them on every node
// (see core.DSM.registerServices), so the node's service table, and a block
// of services, are each made once for all of them: the table is sized to
// every channel interned so far, the block to this one and every one
// interned after it.
func (n *Node) register(name string, svc service) {
	id := n.rt.ServiceID(name)
	if int(id) < len(n.svcs) && n.svcs[id] != nil {
		panic(fmt.Sprintf("pm2: service %q registered twice on node %d", name, n.ID))
	}
	channels := n.rt.net.Channels()
	if int(id) >= len(n.svcs) {
		grown := make([]*service, channels)
		copy(grown, n.svcs)
		n.svcs = grown
	}
	if len(n.svcBlock) == cap(n.svcBlock) {
		n.svcBlock = make([]service, 0, channels-int(id))
	}
	n.svcBlock = append(n.svcBlock, svc)
	s := &n.svcBlock[len(n.svcBlock)-1]
	s.chanID, s.node = id, n
	n.svcs[id] = s
	n.rt.net.Serve(n.ID, id, n.rt.sink)
}

// deliver is the sink of every served queue of the machine (rt.sink): it
// hands one request to the service its message names by node and channel,
// in engine context (see madeleine.Network.Serve). A quick request is
// scheduled as its own call record now, where a handler thread's first wake
// would go. Any other gets a handler thread, on the descriptor of a handler
// that has returned when there is one: start renews its id, proc and place
// in the live list, and what else a tenant can leave behind is reset here. A
// serial service's queue is unbound until that thread is done (see handle).
func (rt *Runtime) deliver(v interface{}) {
	msg := v.(*madeleine.Message)
	n := rt.nodes[msg.To]
	svc := n.svcs[msg.Chan]
	req := msg.Payload.(*Request)
	rt.net.FreeMessage(msg)
	n.HandlersSpawned++
	if svc.quick != nil {
		req.svc, req.inc = svc, n.Restarts
		rt.eng.ScheduleCall(rt.eng.Now(), req)
		return
	}
	if !svc.threaded {
		rt.net.Unserve(n.ID, svc.chanID)
	}
	t, ok := svc.free.Get()
	if !ok {
		t = &Thread{svc: svc}
	}
	if svc.threadName == "" {
		// Concatenated rather than fmt-formatted, which would also box
		// the name; the channel's name is "rpc:" and the service's.
		name := strings.TrimPrefix(rt.net.ChannelName(svc.chanID), "rpc:")
		svc.threadName = "rpch:" + name + "@" + strconv.Itoa(n.ID)
	}
	t.req, t.migrations, t.migratable, t.done = req, 0, false, false
	rt.start(n.ID, svc.threadName, 0, t)
}

// Fire is a quick request's call record (sim.Caller): it runs the handler
// the first time and sends the reply once answered. A request whose node died
// or restarted since delivery is dropped unanswered, as the handler thread it
// stands for would have been killed with the node.
func (r *Request) Fire() {
	svc := r.svc
	switch {
	case r.orphaned():
		svc.node.rt.putReq(r)
	case r.answered:
		svc.finish(r, r.arg)
	default:
		if res, kept := svc.quick(r, r.arg); !kept {
			svc.finish(r, res)
		}
	}
}

// Answer completes a request its quick handler kept, with result res: a call
// record scheduled now, in the slot a parked handler thread's wake would take,
// sends the reply. A request whose node died or restarted since delivery is
// dropped, scheduling nothing, as nothing wakes a killed thread.
func (r *Request) Answer(res interface{}) {
	rt := r.svc.node.rt
	if r.orphaned() {
		rt.putReq(r)
		return
	}
	r.arg, r.answered = res, true
	rt.eng.ScheduleCall(rt.eng.Now(), r)
}

// orphaned reports whether a quick request's node died or restarted since
// the request was delivered to it.
func (r *Request) orphaned() bool {
	n := r.svc.node
	return n.rt.net.Dead(n.ID) || n.Restarts != r.inc
}

// SizedReply lets a handler override its reply's wire size at completion
// time, for results whose size is only known when the handler finishes —
// e.g. a barrier grant carrying the write notices the generation's arrivals
// accumulated. The reply is charged for Size bytes and the caller receives
// Value. From a vector element, Size adds to the coalesced reply's charge
// instead (the caller-supplied base covers the envelope, each override its
// element's payload).
type SizedReply struct {
	Value interface{}
	Size  int
}

// handle is a handler thread's body: run the handler on t.req and finish it.
// A serial service's thread then takes the requests queued meanwhile, in
// order and with no event, and binds the queue again when none is left.
func (svc *service) handle(t *Thread) {
	n := svc.node
	for {
		svc.finish(t.req, svc.handler(t, t.req.arg))
		if svc.threaded {
			break
		}
		msg, ok := n.rt.net.TryRecvID(n.ID, svc.chanID)
		if !ok {
			n.rt.net.Serve(n.ID, svc.chanID, n.rt.sink)
			break
		}
		t.req = msg.Payload.(*Request)
		n.rt.net.FreeMessage(msg)
		n.HandlersSpawned++
	}
}

// finish sends the reply to req if one is expected, charged on the link back
// to the caller, and recycles req. Elements of a vector invocation do not
// reply individually: each completion counts down the shared join, and the
// last one sends the single coalesced reply.
func (svc *service) finish(req *Request, res interface{}) {
	if sr, ok := res.(*SizedReply); ok {
		if req.join != nil {
			req.join.retSize += sr.Size
		} else {
			req.retSize = sr.Size
		}
		res = sr.Value
	}
	rt, here := svc.node.rt, svc.node.ID
	if j := req.join; j != nil {
		j.results[req.idx] = res
		rt.putReq(req)
		if j.remaining--; j.remaining == 0 {
			rt.net.SendDirect(here, j.node.ID, &j.reply, j.retSize, j, halfRPC(rt.Link(here, j.node.ID), j.retSize))
		}
		return
	}
	if req.reply != nil {
		rt.net.SendDirect(here, req.from, req.reply, req.retSize, res, halfRPC(rt.Link(here, req.from), req.retSize))
	}
	rt.putReq(req)
}

// halfRPC is the one-way latency of a request or reply of size bytes: half a
// null-RPC round trip, plus the bulk time of what exceeds a control message.
func halfRPC(prof *madeleine.Profile, size int) sim.Duration {
	d := prof.RPCBase / 2
	if size > 64 {
		d += prof.Transfer(size) - prof.XferBase
	}
	return d
}

// Call synchronously invokes service on node dest with the given argument,
// and blocks until the result arrives. argSize and retSize are the wire
// sizes used for timing; a null RPC (both small) costs the profile's RPCBase
// plus handler execution time, matching the Section 2.1 micro-measurements.
func (t *Thread) Call(dest int, svcName string, arg interface{}, argSize, retSize int) interface{} {
	return t.CallID(dest, t.rt.ServiceID(svcName), arg, argSize, retSize)
}

// CallID is Call to the service whose id is ch (see ServiceID).
func (t *Thread) CallID(dest int, ch madeleine.ChanID, arg interface{}, argSize, retSize int) interface{} {
	rt := t.rt
	reply := t.ReplyQueue()
	req := rt.getReq()
	*req = Request{arg: arg, reply: reply, retSize: retSize, from: t.node}
	rt.net.SendID(t.node, dest, ch, argSize, req, halfRPC(rt.Link(t.node, dest), argSize))
	return reply.Recv(&t.proc)
}

// AsyncFrom invokes the service whose id is ch on node dest, from node from,
// without waiting for completion or result. Small arguments are charged at
// the control-message cost, large ones at the bulk transfer cost; this is
// the flavor the DSM communication module uses for page requests, page
// sends and invalidations.
func (rt *Runtime) AsyncFrom(from, dest int, ch madeleine.ChanID, arg interface{}, size int) {
	req := rt.getReq()
	req.arg = arg
	if size > 64 {
		rt.net.SendBulkID(from, dest, ch, size, req)
	} else {
		rt.net.SendCtrlID(from, dest, ch, req)
	}
}

// VecElem is one element of a vector invocation: a service id (see
// ServiceID), its argument, and the element's wire size.
type VecElem struct {
	Svc  madeleine.ChanID
	Arg  interface{}
	Size int
}

// StartVecFrom ships a vector of service invocations to dest as ONE
// multi-part envelope (a single departure through the link-contention model)
// and returns the call its coalesced reply completes. Each element fans into
// its service's normal delivery on the destination — threaded services handle
// elements concurrently — and the last element's completion sends one reply
// for all of them. The caller, on node from, may start several destinations'
// envelopes before it waits for the first reply (the DSM outbox flush does),
// and releases each call after its reply.
func (rt *Runtime) StartVecFrom(from, dest int, elems []VecElem, retSize int) *VecCall {
	return rt.sendVec(from, dest, elems, true, retSize)
}

// AsyncVecFrom is StartVecFrom without a reply: the envelope fans out on the
// destination and nobody waits (fire-and-forget vectors).
func (rt *Runtime) AsyncVecFrom(from, dest int, elems []VecElem) {
	rt.sendVec(from, dest, elems, false, 0).Release() // it lent its parts buffer only
}

// sendVec builds the pooled per-element requests, joined to a call of node
// from when a reply is wanted, and ships the whole vector as a single gather
// envelope. The latency charge mirrors Call for replied vectors (half a
// null-RPC round trip plus the bulk time of the summed payload) and Async for
// fire-and-forget ones.
func (rt *Runtime) sendVec(from, dest int, elems []VecElem, reply bool, retSize int) *VecCall {
	c, ok := rt.nodes[from].vecFree.Get()
	if !ok {
		c = &VecCall{node: rt.nodes[from]}
	}
	if reply {
		c.remaining, c.retSize = len(elems), retSize
		c.results = append(c.results[:0], make([]interface{}, len(elems))...)
		if len(elems) == 0 {
			// An empty vector completes immediately, so a generic
			// send-then-wait loop never wedges.
			c.reply.Push(c)
		}
	}
	c.parts = c.parts[:0]
	total := 0
	for i, el := range elems {
		req := rt.getReq()
		req.arg, req.from, req.idx = el.Arg, from, i
		if reply {
			req.join = c
		}
		c.parts = append(c.parts, madeleine.GatherPart{Chan: el.Svc, Size: el.Size, Payload: req})
		total += el.Size
	}
	prof := rt.Link(from, dest)
	d := prof.CtrlMsg
	if reply {
		d = halfRPC(prof, total)
	} else if total > 64 {
		d = prof.Transfer(total)
	}
	rt.net.SendGather(from, dest, c.parts, d)
	return c
}
