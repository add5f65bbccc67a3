package core

import (
	"slices"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Recovery: the DSM-level half of the fault-injection subsystem. The
// network drops a dead node's traffic and the PM2 runtime kills its threads
// (see their fault.go files); this file repairs the distributed page-manager
// state those fail-stops tear holes in:
//
//   - pages homed or owned on the dead node are re-homed onto the freshest
//     surviving replica (owner copy first, then writable, then read-only),
//     or re-initialized to zero on a deterministic survivor when every copy
//     died (counted in RecoveryStats.Lost);
//   - every surviving page-table entry is scrubbed: the dead node leaves
//     all copysets, probable-owner hints through it are redirected to the
//     new home;
//   - lock and barrier manager state is cleansed: queued acquires from the
//     dead node are cancelled, a lock held by it is granted onward, and
//     barrier slots are left to the idempotent re-arrival protocol;
//   - in-flight protocol actions do not wait on the dead forever: a crash
//     wakes every wait it strands at the crash instant (see watch and
//     scrubEntries), and the waiter re-routes against the repaired state.
//
// The failure detector is perfect — the simulator knows the instant a node
// fails — and the links below are reliable (madeleine retransmits what a
// lossy link loses), so no protocol wait needs a timeout.
//
// Everything is swept in deterministic order (sorted pages, node ids
// ascending), so a crash at a fixed virtual time replays bit-identically.

// RecoveryStats counts the recovery manager's work. The crashes and restarts
// themselves are the network's to count (madeleine.FaultStats).
type RecoveryStats struct {
	// ReHomed counts pages moved to a new home after their home or owner
	// died with a surviving replica.
	ReHomed int
	// Lost counts pages whose every copy died: their contents reset to
	// zero on the new home. Applications must either tolerate this or keep
	// recoverable data under a home-based protocol on protected nodes.
	Lost int
}

// recoveryState is the DSM's recovery manager. Which nodes are dead is the
// network's record (see NodeDead).
type recoveryState struct {
	// onRestart, if set, runs in engine context after a node's DSM state has
	// been rebuilt for its cold restart: the hook applications use to respawn
	// the node's workers. It must not block.
	onRestart func(node int)
	stats     RecoveryStats
	// waits are the protocol waits a crash may strand, in registration
	// order (see watch).
	waits []watched
}

// watched is one registered protocol wait: node's thread awaits, on ch, the
// reply of peer — or, with peer -1, of each node of peers (a round).
type watched struct {
	ch    *sim.Chan
	node  int
	peer  int
	peers NodeSet
}

// peerDead is what a crash pushes into a wait on the dead peer.
type peerDead struct{ node int }

// OnRestart sets fn (may be nil) as the node-restart hook: it runs after
// RestartNode has rebuilt the node's DSM state.
func (d *DSM) OnRestart(fn func(node int)) { d.recovery.onRestart = fn }

// watch registers node's wait for peer's reply on ch — or, with peer -1, a
// round's for the reply of each node of peers — from the moment the requests
// leave until the wait takes its reply. A crash of an awaited node pushes
// peerDead into ch at the crash instant, even if the node restarts before the
// waiter runs, unless a single peer's reply is already there; a peer already
// dead does so at once. A round ignores a peerDead of a node that already
// answered. ch must be the wait's own channel.
func (d *DSM) watch(ch *sim.Chan, node, peer int, peers NodeSet) {
	if peer >= 0 && d.NodeDead(peer) {
		ch.Push(peerDead{peer})
	} else {
		d.recovery.waits = append(d.recovery.waits, watched{ch: ch, node: node, peer: peer, peers: peers})
	}
}

// await takes the reply watch registered on ch. It reports false when the
// peer died instead: the caller then re-routes against the repaired state.
func (d *DSM) await(t *pm2.Thread, ch *sim.Chan) (interface{}, bool) {
	v := ch.Recv(t.Proc())
	d.unwatch(ch)
	_, dead := v.(peerDead)
	return v, !dead
}

// unwatch ends the wait registered on ch, if it is still registered.
func (d *DSM) unwatch(ch *sim.Chan) {
	rec := &d.recovery
	if i := slices.IndexFunc(rec.waits, func(w watched) bool { return w.ch == ch }); i >= 0 {
		rec.waits = slices.Delete(rec.waits, i, i+1)
	}
}

// wakeWaits ends, at node n's crash, the waits it strands: a wait on n gets
// peerDead unless its reply already arrived, and so does a round over n.
// Waits of n's own threads died with them.
func (d *DSM) wakeWaits(n int) {
	rec := &d.recovery
	kept := rec.waits[:0]
	for _, w := range rec.waits {
		switch {
		case w.node == n:
			continue
		case w.peer < 0 && w.peers.Contains(n):
			w.ch.Push(peerDead{n})
		case w.peer == n:
			if w.ch.Len() == 0 {
				w.ch.Push(peerDead{n})
			}
			continue
		}
		kept = append(kept, w)
	}
	clear(rec.waits[len(kept):])
	rec.waits = kept
}

// trackRequest notes where r — the requester's pending fetch, if still
// current — now is: at, or reqServed once a server sent the page, which
// reaches the requester even if the server then dies.
func (d *DSM) trackRequest(r *Request, at int) {
	if e := d.state[r.From].entry(r.Page); e != nil && e.Pending && e.reqSeq == r.Seq {
		e.reqAt = int32(at)
	}
}

// strandDropped strands the pending fetch whose page request or page v the
// network discarded for good (a crash discards what its node still held on a
// link, either end), so FetchPage sends it again.
func (d *DSM) strandDropped(v interface{}) {
	node, pg, seq := -1, Page(0), uint64(0)
	switch m := v.(type) {
	case *Request:
		node, pg, seq = m.From, m.Page, m.Seq
	case *PageMsg:
		node, pg, seq = m.Node, m.Page, m.Seq
	}
	if node < 0 || d.NodeDead(node) {
		return
	}
	if e := d.state[node].entry(pg); e != nil && e.Pending && e.reqSeq == seq {
		e.reqAt = reqStranded
		e.Broadcast()
	}
}

// RecoveryStats returns the recovery counters.
func (d *DSM) RecoveryStats() RecoveryStats { return d.recovery.stats }

// NodeDead reports whether node n is currently crashed, as the network
// records it.
func (d *DSM) NodeDead(n int) bool { return d.rt.Network().Dead(n) }

// CrashNode fail-stops node n and repairs the distributed state around the
// hole. It must run in engine context (a scheduled fault event).
func (d *DSM) CrashNode(n int) {
	if d.NodeDead(n) {
		return
	}
	d.rt.KillNode(n)
	d.installers[n].kill()
	d.rehomePages(n)
	d.scrubLocks(n)
	d.wakeWaits(n)
}

// RestartNode brings node n back cold: fresh DSM node state (no frames, no
// entries — everything refetched on demand), reconnected RPC services, then the
// application's OnRestart hook. Must run in engine context.
func (d *DSM) RestartNode(n int) {
	d.rt.Node(n) // range check
	if !d.NodeDead(n) {
		return
	}
	// Cold memory: the node starts with no frames and no page-table
	// entries; both rebuild on demand from the (repaired) allocation
	// metadata. The old state — including entry mutexes whose waiters all
	// died, and the dirty marks of writes that died with them — is simply
	// dropped.
	d.state[n] = newNodeState(n)
	d.rt.RestartNode(n)
	d.installers[n] = new(installer).init(d, n) // the killed one's proc is never reused
	if fn := d.recovery.onRestart; fn != nil {
		fn(n)
	}
}

// rehomePages repairs the page manager after node n died: pages homed or
// owned there move to the freshest surviving replica, and every surviving
// entry drops n from its copyset and stops routing requests through it.
func (d *DSM) rehomePages(n int) {
	rec := &d.recovery
	deadState := d.state[n]
	for _, pg := range d.sortedPages() {
		pi := d.dir[pg]
		deadEntry := deadState.entry(pg)
		ownerDied := deadEntry != nil && deadEntry.Owner
		homeDied := pi.home == n
		if !ownerDied && !homeDied {
			// The dead node was at most a reader: scrub it out.
			d.scrubEntries(pg, n, pi.home)
			continue
		}
		// Pick the freshest surviving replica: the owner's copy if one
		// survives, else a writable copy, else a read-only one; ties go to
		// the lowest node id. No survivor means the page contents are lost.
		best, bestRank := -1, -1
		var holders NodeSet // the surviving replicas
		for i := 0; i < d.rt.Nodes(); i++ {
			frame := d.state[i].space.Frame(pg)
			if d.NodeDead(i) || frame == nil || frame.Access < memory.ReadOnly {
				continue
			}
			holders.Add(i)
			rank := int(frame.Access)
			if e := d.state[i].entry(pg); e != nil && e.Owner {
				rank = 10
			}
			if rank > bestRank {
				best, bestRank = i, rank
			}
		}
		lost := best < 0
		for i := 0; best < 0 && i < d.rt.Nodes(); i++ {
			if !d.NodeDead(i) {
				best = i
			}
		}
		if best < 0 {
			panic("core: recovery with every node dead")
		}
		pi.home = best
		d.dir[pg] = pi
		e := d.Entry(best, pg)
		if lost {
			frame := d.state[best].space.Ensure(pg)
			clear(frame.Data)
			frame.Access = memory.ReadOnly
			rec.stats.Lost++
		} else {
			rec.stats.ReHomed++
		}
		// The new home owns the page; its access right is whatever its
		// copy already had — a weaker right simply re-faults locally (the
		// owner serves itself over loopback), which keeps the repair
		// protocol-agnostic.
		e.Owner, e.Home, e.ProbOwner = true, best, best
		// Restore the protocol's home invariants on the promoted copy: a
		// promoted writable CACHED copy must not stay silently writable at
		// its new home — hbrc_mw/entry_mw detect home writes only through
		// the write-protection their InitPage installs, and without it a
		// re-homed page's later writes would never generate diffs, notices
		// or invalidations, leaving third-party copies stale forever.
		d.reinitHome(pg, best)
		holders.Remove(best)
		e.Copyset = holders
		d.scrubEntries(pg, n, best)
	}
}

// scrubEntries removes the dead node n from pg's surviving entries: out of
// copysets, hints through it redirected to target, home metadata updated.
func (d *DSM) scrubEntries(pg Page, n, target int) {
	home := d.dir[pg].home
	for i := 0; i < d.rt.Nodes(); i++ {
		e := d.state[i].entry(pg)
		if i == n || d.NodeDead(i) || e == nil {
			continue
		}
		e.RemoveCopyset(n)
		if e.ProbOwner == n {
			e.ProbOwner = target
		}
		e.Home = home
		if e.Pending {
			// A fetch is in flight across the crash. Its response may have
			// left the dead node before the fail-stop and land after this
			// sweep — installing a copy the rebuilt copyset knows nothing
			// about, stale forever. Retire it: the bumped InvalSeq makes
			// the install discard the late response. A request the dead
			// node held died with it: the wake sends the fetch again toward
			// the repaired owner hint (see FetchPage). One it still held on
			// a link, or a page, died there (strandDropped).
			e.InvalSeq++
			if e.reqAt == int32(n) {
				e.reqAt = reqStranded
				e.Broadcast()
			}
		}
	}
}

// scrubLocks cleanses the lock managers of the dead node n: queued acquires
// from n are cancelled, and a lock held by n is granted onward so survivors
// do not block behind a corpse. Barriers need no scrub — their idempotent
// re-arrival protocol (BarrierAs) absorbs crashed participants.
func (d *DSM) scrubLocks(n int) {
	for _, ls := range d.locks {
		kept := ls.waiters[:0]
		for _, lw := range ls.waiters {
			if lw.from == n {
				lw.req.Answer(nil) // cancel the stranded acquire
				continue
			}
			kept = append(kept, lw)
		}
		ls.waiters = kept
		if ls.held && ls.holder == n {
			d.grantNext(ls)
		}
	}
}
