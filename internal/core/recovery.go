package core

import (
	"fmt"

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
//   - in-flight protocol actions do not wait on the dead forever — the
//     fetch/invalidate/diff paths in protolib.go and comm.go bound their
//     waits with RetryTimeout and retry against the repaired state.
//
// Everything is swept in deterministic order (sorted pages, node ids
// ascending), so a crash at a fixed virtual time replays bit-identically.

// RetryTimeout bounds every blocking protocol wait while recovery is on
// (page fetch, invalidation acks, diff replies, migrations): on expiry the
// action re-checks the fault state and retries. It sits comfortably above the
// slowest calibrated round trip (TCP/Fast Ethernet page fault, ~1ms), so
// fault-free traffic never retries spuriously.
const RetryTimeout = 5 * sim.Millisecond

// RecoveryStats counts the recovery manager's work.
type RecoveryStats struct {
	// Crashes and Restarts count node fault events applied to the DSM.
	Crashes  int
	Restarts int
	// ReHomed counts pages moved to a new home after their home or owner
	// died with a surviving replica.
	ReHomed int
	// Lost counts pages whose every copy died: their contents reset to
	// zero on the new home. Applications must either tolerate this or keep
	// recoverable data under a home-based protocol on protected nodes.
	Lost int
	// Retries counts protocol actions re-sent after a timeout or a crash.
	Retries int64
	// RedoneUnits counts application work units re-executed after restarts
	// because they were committed before the crash but after the restarted
	// node's resume point (applications report them via AddRedoneUnits).
	// Warm restarts resuming from a checkpoint redo strictly fewer units
	// than cold redo-from-scratch restarts.
	RedoneUnits int64
	// WarmRestarts counts restarts that resumed from a recorded checkpoint
	// (LastCheckpoint >= 0) instead of redoing from scratch.
	WarmRestarts int
}

// recoveryState is the DSM's recovery manager (nil when disabled).
type recoveryState struct {
	// onRestart, if set, runs in engine context after a node's DSM state has
	// been rebuilt for its cold restart: the hook applications use to respawn
	// the node's workers. It must not block.
	onRestart func(node int)
	dead      []bool
	stats     RecoveryStats
	// ckpts records, per node, the last work unit the application committed
	// a local checkpoint for (-1 when none). OnRestart hooks read it back
	// through LastCheckpoint to warm-start instead of redoing the run.
	ckpts []int
}

// EnableRecovery switches the recovery manager on, with onRestart (may be
// nil) as the node-restart hook. Call it before Run; the fault plan's node
// events are then applied through CrashNode/RestartNode. The PM2 runtime's
// network fault layer must be enabled as well (the facade does both).
func (d *DSM) EnableRecovery(onRestart func(node int)) {
	rec := &recoveryState{
		onRestart: onRestart,
		dead:      make([]bool, d.rt.Nodes()),
		ckpts:     make([]int, d.rt.Nodes()),
	}
	for i := range rec.ckpts {
		rec.ckpts[i] = -1
	}
	d.recovery = rec
}

// await is a protocol action's wait for its reply on ch: unbounded with
// recovery off, and otherwise bounded by RetryTimeout. On expiry it reports
// false, and the caller re-checks the fault state and re-sends, counting each
// re-send with retried.
func (d *DSM) await(t *pm2.Thread, ch *sim.Chan) (interface{}, bool) {
	if d.recovery == nil {
		return ch.Recv(t.Proc()), true
	}
	return ch.RecvTimeout(t.Proc(), RetryTimeout)
}

// awaitEntry is await for a wake-up on e, whose lock t holds.
func (d *DSM) awaitEntry(t *pm2.Thread, e *Entry) bool {
	if d.recovery == nil {
		e.Wait(t)
		return true
	}
	return e.WaitTimeout(t, RetryTimeout)
}

// retried counts an action re-sent or re-routed after a (bounded) wait expired.
func (d *DSM) retried() { d.recovery.stats.Retries++ }

// RecordCheckpoint notes that node committed a local checkpoint covering
// work units up to and including unit. Applications call it right after
// their flush-then-commit point; a later restart's OnRestart hook reads it
// back through LastCheckpoint. No-op when recovery is off.
func (d *DSM) RecordCheckpoint(node, unit int) {
	if d.recovery == nil || node < 0 || node >= len(d.recovery.ckpts) {
		return
	}
	if unit > d.recovery.ckpts[node] {
		d.recovery.ckpts[node] = unit
	}
}

// LastCheckpoint reports the last work unit node committed a checkpoint
// for, or -1 when none was recorded (or recovery is off).
func (d *DSM) LastCheckpoint(node int) int {
	if d.recovery == nil || node < 0 || node >= len(d.recovery.ckpts) {
		return -1
	}
	return d.recovery.ckpts[node]
}

// AddRedoneUnits accumulates application-reported redone work units into
// the recovery stats (see RecoveryStats.RedoneUnits).
func (d *DSM) AddRedoneUnits(n int) {
	if d.recovery != nil {
		d.recovery.stats.RedoneUnits += int64(n)
	}
}

// NoteWarmRestart counts a restart that resumed from a recorded checkpoint.
func (d *DSM) NoteWarmRestart() {
	if d.recovery != nil {
		d.recovery.stats.WarmRestarts++
	}
}

// RecoveryEnabled reports whether the recovery manager is on.
func (d *DSM) RecoveryEnabled() bool { return d.recovery != nil }

// RecoveryStats returns the recovery counters (zero value when disabled).
func (d *DSM) RecoveryStats() RecoveryStats {
	if d.recovery == nil {
		return RecoveryStats{}
	}
	return d.recovery.stats
}

// NodeDead reports whether node n is currently crashed.
func (d *DSM) NodeDead(n int) bool {
	return d.recovery != nil && n >= 0 && n < len(d.recovery.dead) && d.recovery.dead[n]
}

// mustRecovery panics when recovery is off or node n does not exist.
func (d *DSM) mustRecovery(op string, n int) *recoveryState {
	if d.recovery == nil {
		panic("core: " + op + " before EnableRecovery")
	}
	if n < 0 || n >= len(d.recovery.dead) {
		panic(fmt.Sprintf("core: %s(%d): no such node", op, n))
	}
	return d.recovery
}

// CrashNode fail-stops node n and repairs the distributed state around the
// hole. It must run in engine context (a scheduled fault event).
func (d *DSM) CrashNode(n int) {
	rec := d.mustRecovery("CrashNode", n)
	if rec.dead[n] {
		return
	}
	rec.dead[n] = true
	rec.stats.Crashes++
	d.rt.KillNode(n)
	d.installers[n].kill()
	d.rehomePages(n)
	d.scrubLocks(n)
	d.eachInstance(func(p Protocol) {
		if r, ok := p.(Recoverable); ok {
			r.OnNodeCrash(n)
		}
	})
}

// RestartNode brings node n back cold: fresh DSM node state (no frames, no
// entries — everything refetched on demand), reconnected RPC services, then the
// application's OnRestart hook. Must run in engine context.
func (d *DSM) RestartNode(n int) {
	rec := d.mustRecovery("RestartNode", n)
	if !rec.dead[n] {
		return
	}
	rec.dead[n] = false
	rec.stats.Restarts++
	// Cold memory: the node starts with no frames and no page-table
	// entries; both rebuild on demand from the (repaired) allocation
	// metadata. The old state — including entry mutexes whose waiters all
	// died — is simply dropped.
	d.state[n] = newNodeState(n)
	d.rt.RestartNode(n)
	d.installers[n] = new(installer).init(d, n) // the killed one's proc is never reused
	d.eachInstance(func(p Protocol) {
		if r, ok := p.(Recoverable); ok {
			r.OnNodeRestart(n)
		}
	})
	if rec.onRestart != nil {
		rec.onRestart(n)
	}
}

// rehomePages repairs the page manager after node n died: pages homed or
// owned there move to the freshest surviving replica, and every surviving
// entry drops n from its copyset and stops routing requests through it.
func (d *DSM) rehomePages(n int) {
	rec := d.recovery
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
		for i := 0; i < d.rt.Nodes(); i++ {
			if rec.dead[i] {
				continue
			}
			frame := d.state[i].space.Frame(pg)
			if frame == nil || frame.Access < memory.ReadOnly {
				continue
			}
			rank := int(frame.Access)
			if e := d.state[i].entry(pg); e != nil && e.Owner {
				rank = 10
			}
			if rank > bestRank {
				best, bestRank = i, rank
			}
		}
		lost := best < 0
		if lost {
			for i := 0; i < d.rt.Nodes(); i++ {
				if !rec.dead[i] {
					best = i
					break
				}
			}
			if best < 0 {
				panic("core: recovery with every node dead")
			}
		}
		pi.home = best
		d.dir[pg] = pi
		e := d.Entry(best, pg)
		if lost {
			frame := d.state[best].space.Ensure(pg)
			for i := range frame.Data {
				frame.Data[i] = 0
			}
			frame.Access = memory.ReadOnly
			rec.stats.Lost++
		} else {
			rec.stats.ReHomed++
		}
		// The new home owns the page; its access right is whatever its
		// copy already had — a weaker right simply re-faults locally (the
		// owner serves itself over loopback), which keeps the repair
		// protocol-agnostic.
		e.Owner = true
		e.Home = best
		e.ProbOwner = best
		// Restore the protocol's home invariants on the promoted copy: a
		// promoted writable CACHED copy must not stay silently writable at
		// its new home — hbrc_mw/entry_mw detect home writes only through
		// the write-protection their InitPage installs, and without it a
		// re-homed page's later writes would never generate diffs, notices
		// or invalidations, leaving third-party copies stale forever.
		d.reinitHome(pg, best)
		e.Copyset.Clear()
		for i := 0; i < d.rt.Nodes(); i++ {
			if i == best || rec.dead[i] {
				continue
			}
			if frame := d.state[i].space.Frame(pg); frame != nil && frame.Access >= memory.ReadOnly {
				e.Copyset.Add(i) // ascending by construction
			}
		}
		d.scrubEntries(pg, n, best)
	}
}

// scrubEntries removes the dead node n from pg's surviving entries: out of
// copysets, hints through it redirected to target, home metadata updated.
func (d *DSM) scrubEntries(pg Page, n, target int) {
	pi := d.dir[pg]
	home := pi.home
	for i := 0; i < d.rt.Nodes(); i++ {
		if i == n || d.recovery.dead[i] {
			continue
		}
		e := d.state[i].entry(pg)
		if e == nil {
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
			// InstallPage discard the late response, and the fetch retries
			// toward the repaired owner hint on its recovery timeout.
			e.InvalSeq++
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
