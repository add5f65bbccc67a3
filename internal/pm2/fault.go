package pm2

import (
	"fmt"

	"dsmpm2/internal/sim"
)

// Node-level fault support: fail-stop crash (every thread located on the
// node dies, the network drops its traffic) and cold restart (fresh CPUs,
// services connected to fresh, empty queues). The DSM layer above coordinates the
// page-state recovery; this file only handles the runtime machinery. Which
// nodes are dead is the network's record (madeleine.Network.Dead).

// OnDrop installs fn, called in engine context with what the fault layer
// discards for good: the argument of each dropped RPC request, the payload
// of each other dropped message. The DSM hears through it that a message a
// wait depends on is gone — one a crashed node held on a link, say.
func (rt *Runtime) OnDrop(fn func(v interface{})) { rt.onDrop = fn }

// KillNode fail-stops node n: every unfinished thread currently located on
// it (application and RPC handler threads, migrated-in threads) is killed,
// joiners of those threads are released, and the network starts dropping the
// node's traffic. The requests its quick services hold die too: they are
// dropped, unanswered, when they next come up (see Fire).
// Must run in engine context (a fault event), never from a thread on node n.
func (rt *Runtime) KillNode(n int) {
	if rt.net.Dead(n) {
		return
	}
	rt.net.CrashNode(n)
	// In list order: the joiner releases below reach virtual time in it.
	for t := rt.live.head; t != nil; {
		next := t.next // killThread unlinks t
		if t.node == n {
			rt.killThread(t)
		}
		t = next
	}
}

// killThread kills the unfinished thread t and releases its joiners.
func (rt *Runtime) killThread(t *Thread) {
	t.proc.Kill()
	t.finish()
	if t.req != nil { // a handler's, never to be finished
		rt.putReq(t.req)
	}
	for _, j := range t.joiners {
		if !j.Dead() {
			j.Unpark()
		}
	}
	t.joiners = nil
}

// RestartNode brings a crashed node back cold: alive again for the network,
// a fresh CPU resource (a thread killed mid-compute can never free it, so
// the old one may be stranded), and every registered service
// bound to its fresh queue (the crash unbound the old one and reclaimed what
// was queued there), in channel-id order so replays are deterministic.
func (rt *Runtime) RestartNode(n int) {
	node := rt.Node(n)
	if !rt.net.Dead(n) {
		return
	}
	rt.net.RestartNode(n)
	node.CPU = new(sim.Resource)
	for _, svc := range node.svcs {
		if svc != nil {
			rt.net.Serve(n, svc.chanID, rt.sink)
		}
	}
	node.Restarts++
}

// checkAlive panics on operations against a crashed node, to surface fault
// plan bugs (spawning threads before the restart event) immediately.
func (n *Node) checkAlive(op string) {
	if n.rt.net.Dead(n.ID) {
		panic(fmt.Sprintf("pm2: %s on crashed node %d", op, n.ID))
	}
}
