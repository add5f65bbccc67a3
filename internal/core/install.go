package core

import (
	"fmt"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// StandardInstall is the standard receive-page server: a protocol embeds it
// when the core's install is all an arriving page needs. The core installs
// every page itself (see installer) and then calls the page's protocol's
// ReceivePageServer, so a protocol that must adjust its state after an
// install (li_managed re-aims its owner hint) defines its own instead.
type StandardInstall struct{}

// ReceivePageServer implements Protocol: nothing beyond the core's install.
func (StandardInstall) ReceivePageServer(*PageMsg) {}

// installChannel carries page transfers to the receiving node's installer.
const installChannel = "dsm.install"

// installer is one node's page installer. It is a serial service without a
// thread: its channel's sink starts it, it installs the pages one at a time in
// arrival order, and the channel stays unbound while it is busy. Each busy
// stretch is one step proc (see sim.SpawnStep). Each page takes a handler
// thread's path through the kernel: lock the entry, hold a CPU for
// Costs.Install, install, run the protocol's ReceivePageServer, unlock, take
// the next page.
type installer struct {
	proc  sim.Proc
	d     *DSM
	node  int
	name  string
	pm    *PageMsg
	e     *Entry
	state uint8
}

// The installer's states: the step at which its next wake resumes the page.
const (
	installLock   = iota // new page: take the entry lock
	installCPU           // entry locked: take a CPU
	installCharge        // CPU held: charge Costs.Install
	installDone          // charged: install, unlock, take the next page
)

// init makes in node's installer, bound to its channel.
func (in *installer) init(d *DSM, node int) *installer {
	*in = installer{d: d, node: node, name: fmt.Sprintf("rpch:dsm.page@%d", node)}
	d.rt.Network().Serve(node, d.installCh, d.installSink)
	return in
}

// deliverInstall is every node's install channel sink: it hands a page to the
// installer of the node it reached.
func (d *DSM) deliverInstall(v interface{}) { d.installers[v.(*madeleine.Message).To].deliver(v) }

// deliver starts a busy stretch on the page v, in engine context: the step
// proc's first wake takes the slot a handler thread's would.
func (in *installer) deliver(v interface{}) {
	in.d.rt.Network().Unserve(in.node, in.d.installCh)
	in.take(v)
	in.d.rt.Engine().SpawnStep(&in.proc, in.name, in)
}

// take makes the message v the page to install next.
func (in *installer) take(v interface{}) {
	msg := v.(*madeleine.Message)
	in.pm, in.state = msg.Payload.(*PageMsg), installLock
	in.d.rt.Network().FreeMessage(msg)
	in.d.rt.Node(in.node).HandlersSpawned++
}

// Run is the installer's step (sim.Runner): it carries the current page as
// far as it can without waiting, and returns queued or asleep.
func (in *installer) Run(p *sim.Proc) {
	d := in.d
	for {
		switch in.state {
		case installLock:
			in.e = d.arrive(in.pm, in.node)
			in.state = installCPU
			if !in.e.mu.LockStep(p) {
				return
			}
			fallthrough
		case installCPU:
			in.state = installCharge
			if !d.rt.Node(in.node).CPU.AcquireStep(p) {
				return
			}
			fallthrough
		case installCharge:
			in.state = installDone
			p.Sleep(d.costs.Install)
			return
		case installDone:
			d.rt.Node(in.node).CPU.Done(d.costs.Install)
			d.install(in.pm, in.e)
			in.e.mu.Unlock(p)
			put(&d.recs.pages, in.pm)
			in.pm, in.e = nil, nil
			msg, ok := d.rt.Network().TryRecvID(in.node, d.installCh)
			if !ok {
				d.rt.Network().Serve(in.node, d.installCh, d.installSink)
				p.Exit()
				return
			}
			in.take(msg)
		}
	}
}

// kill stops a busy stretch for good, with the node it runs on (see
// CrashNode).
func (in *installer) kill() {
	if in.proc.Engine() != nil {
		in.proc.Kill()
	}
}

// arrive completes a page that reached node: its transfer time, DSM and Node.
// It returns the page's entry on node, whose lock the install takes.
func (d *DSM) arrive(pm *PageMsg, node int) *Entry {
	if ft := liveTiming(pm.Timing, pm.ftSeq); ft != nil {
		ft.Transfer = d.rt.Now().Sub(pm.sentAt)
		ft.Link = pm.link
	}
	pm.DSM, pm.Node = d, node
	return d.Entry(node, pm.Page)
}

// install copies an arriving page into the local frame, sets the granted
// access right, updates ownership hints, completes the pending fetch and wakes
// the waiting threads, then runs the page's protocol's ReceivePageServer. The
// installer calls it with e locked and Costs.Install charged.
func (d *DSM) install(pm *PageMsg, e *Entry) {
	if ft := liveTiming(pm.Timing, pm.ftSeq); ft != nil {
		ft.Install = d.costs.Install
	}
	switch {
	case !e.Pending || (!pm.Ownship && pm.Seq != e.reqSeq):
		// A late response to a request that was since sent again (or
		// already satisfied): its data may predate writes the current
		// owner has accepted. Discard it; the outstanding fetch, if any,
		// stays pending and its own response will complete it.
	case !pm.Ownship && e.InvalSeq != e.pendingSeq:
		// An invalidation overtook this copy in flight: the data is
		// stale and the home/owner no longer counts us as a holder.
		// Drop it and let the faulting threads refault and refetch.
		// Ownership transfers are exempt: the previous owner serialized
		// the granting write after any invalidation it sent us.
		e.Pending = false
		e.Broadcast()
	default:
		frame := d.state[pm.Node].space.Ensure(pm.Page)
		copy(frame.Data, pm.Data)
		frame.Access = pm.Access
		e.ProbOwner = pm.Owner
		if pm.Ownship {
			e.Owner = true
			// The wire form stays a plain []int (sorted when it comes from
			// TakeCopyset, arbitrary from custom protocols); FromSlice sorts
			// and deduplicates while rebuilding the interval set.
			e.Copyset.FromSlice(pm.Copyset)
		}
		e.Pending = false
		e.Broadcast()
	}
	d.bufs.Put(pm.Data) // the wire copy was pooled by SendPage
	pm.Data = nil
	d.instances[e.proto].ReceivePageServer(pm)
}
