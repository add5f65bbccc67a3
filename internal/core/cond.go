package core

import (
	"fmt"

	"dsmpm2/internal/pm2"
)

// Cluster-wide condition variables, rounding out the generic core's
// synchronization objects ("locks, barriers, etc.", Section 2.2). A
// condition variable is associated with a DSM lock and lives on that lock's
// manager node; Wait/Signal follow Mesa semantics, and waiting releases and
// re-acquires the lock through the normal Release/Acquire paths, so the
// protocols' consistency actions run exactly as for any other release and
// acquire.

const (
	svcCondReserve = "dsm.cond.reserve"
	svcCondBlock   = "dsm.cond.block"
	svcCondSignal  = "dsm.cond.signal"
)

// condState is the manager-side state of one condition variable.
type condState struct {
	id      int
	lock    int
	home    int
	nextTkt int
	// tickets holds one entry per outstanding waiter. Reservation happens
	// while the lock is still held, so a signal sent between the waiter's
	// release and its block call is remembered on the ticket and the block
	// returns immediately — no lost wakeups.
	tickets map[int]condTicket
	order   []int // FIFO of outstanding ticket ids
}

// condTicket is one outstanding wait: signalled before its block call
// arrived, or blocked, holding the kept block request the signal answers.
type condTicket struct {
	signalled bool
	blocked   *pm2.Request
}

// condReq is the wire payload of condition-variable RPCs.
type condReq struct {
	id     int
	ticket int
	all    bool
}

// NewCond creates a condition variable associated with DSM lock lockID and
// returns its id. The condition lives on the lock's manager node.
func (d *DSM) NewCond(lockID int) int {
	if lockID < 0 || lockID >= len(d.locks) {
		panic(fmt.Sprintf("core: condition on unknown lock %d", lockID))
	}
	id := len(d.conds)
	d.conds = append(d.conds, &condState{
		id:      id,
		lock:    lockID,
		home:    d.locks[lockID].home,
		tickets: make(map[int]condTicket),
	})
	return id
}

// condServices returns the condition-variable manager's handlers, quick ones
// like the lock managers': a block call is kept until a signal answers it.
// registerSyncServices installs them on every node.
func (d *DSM) condServices() (reserve, block, signal pm2.QuickHandler) {
	reserve = func(_ *pm2.Request, arg interface{}) (interface{}, bool) {
		cs := d.conds[arg.(*condReq).id]
		cs.nextTkt++
		cs.tickets[cs.nextTkt] = condTicket{}
		cs.order = append(cs.order, cs.nextTkt)
		return cs.nextTkt, false
	}
	block = func(r *pm2.Request, arg interface{}) (interface{}, bool) {
		req := arg.(*condReq)
		cs := d.conds[req.id]
		tk, ok := cs.tickets[req.ticket]
		if !ok || tk.signalled {
			// Signalled already, or spurious: an immediate wakeup.
			delete(cs.tickets, req.ticket)
			return nil, false
		}
		cs.tickets[req.ticket] = condTicket{blocked: r}
		return nil, true // answered by the signal
	}
	signal = func(_ *pm2.Request, arg interface{}) (interface{}, bool) {
		req := arg.(*condReq)
		cs := d.conds[req.id]
		n := 1
		if req.all {
			n = len(cs.order)
		}
		for ; n > 0 && len(cs.order) > 0; n-- {
			tkt := cs.order[0]
			cs.order = cs.order[1:]
			if tk, ok := cs.tickets[tkt]; ok && tk.blocked != nil {
				delete(cs.tickets, tkt)
				tk.blocked.Answer(nil)
			} else if ok {
				cs.tickets[tkt] = condTicket{signalled: true}
			}
		}
		return nil, false
	}
	return reserve, block, signal
}

// CondWait atomically releases the condition's lock and blocks until
// signalled, then re-acquires the lock. The caller must hold the lock; as
// with any Mesa-style condition, re-check the predicate in a loop.
func (d *DSM) CondWait(t *pm2.Thread, condID int) {
	if condID < 0 || condID >= len(d.conds) {
		panic(fmt.Sprintf("core: wait on unknown condition %d", condID))
	}
	cs := d.conds[condID]
	// Reserve a ticket while still holding the lock: signals from the
	// moment the lock is released will find the ticket.
	tkt := t.Call(cs.home, svcCondReserve, &condReq{id: condID}, ctrlBytes, ctrlBytes).(int)
	d.Release(t, cs.lock)
	t.Call(cs.home, svcCondBlock, &condReq{id: condID, ticket: tkt}, ctrlBytes, ctrlBytes)
	d.Acquire(t, cs.lock)
}

// CondSignal wakes the oldest waiter on the condition, if any.
func (d *DSM) CondSignal(t *pm2.Thread, condID int) {
	if condID < 0 || condID >= len(d.conds) {
		panic(fmt.Sprintf("core: signal on unknown condition %d", condID))
	}
	cs := d.conds[condID]
	t.Call(cs.home, svcCondSignal, &condReq{id: condID}, ctrlBytes, ctrlBytes)
}

// CondBroadcast wakes every waiter on the condition.
func (d *DSM) CondBroadcast(t *pm2.Thread, condID int) {
	if condID < 0 || condID >= len(d.conds) {
		panic(fmt.Sprintf("core: broadcast on unknown condition %d", condID))
	}
	cs := d.conds[condID]
	t.Call(cs.home, svcCondSignal, &condReq{id: condID, all: true}, ctrlBytes, ctrlBytes)
}
