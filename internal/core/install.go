package core

import (
	"fmt"

	"dsmpm2/internal/madeleine"
	"dsmpm2/internal/sim"
)

// StandardInstall is the standard receive-page server. A protocol embeds it
// in place of a ReceivePageServer that only calls InstallPage, and the core
// then installs the protocol's pages by step: on the receiving node's
// installer, a step proc (see sim.SpawnStep), instead of a handler thread,
// with the same events at the same virtual times. A protocol that embeds it
// must not define ReceivePageServer itself, since the core would not call it.
// A receive-page server that does more keeps its handler thread, because such
// code may block.
type StandardInstall struct{}

// ReceivePageServer implements Protocol: it is InstallPage.
func (StandardInstall) ReceivePageServer(pm *PageMsg) { InstallPage(pm) }

func (StandardInstall) installsByStep() {}

// installChannel carries the pages of the protocols that install by step; the
// others' pages go to the serial dsm.page service.
const installChannel = "dsm.install"

// installer is one node's page installer for the protocols that embed
// StandardInstall. It is the serial dsm.page service without the thread: its
// channel's sink starts it, it installs the pages one at a time in arrival
// order, and the channel stays unbound while it is busy. Each busy stretch is
// one step proc, named as the handler thread would be. Each page takes the
// handler thread's path through the kernel: lock the entry, hold a CPU for
// Costs.Install, run InstallPage's body, unlock, take the next page.
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
	*in = installer{d: d, node: node, name: fmt.Sprintf("rpch:%s@%d", svcPage, node)}
	d.rt.Network().Serve(node, d.installCh, d.installSink)
	return in
}

// deliverInstall is every node's install channel sink: it hands a page to the
// installer of the node it reached.
func (d *DSM) deliverInstall(v interface{}) { d.installers[v.(*madeleine.Message).To].deliver(v) }

// deliver starts a busy stretch on the page v, in engine context: the step
// proc's first wake takes the slot the handler thread's would.
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
			pm := in.pm
			if ft := liveTiming(pm.Timing, pm.ftSeq); ft != nil {
				ft.Transfer = d.rt.Now().Sub(pm.sentAt)
				ft.Link = pm.link
			}
			pm.DSM, pm.Node = d, in.node
			in.e = d.Entry(in.node, pm.Page)
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
