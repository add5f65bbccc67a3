package core

import (
	"dsmpm2/internal/freelist"
	"dsmpm2/internal/memory"
	"dsmpm2/internal/sim"
)

// Record ownership (DESIGN.md has the full argument). A message, a fault and
// a critical section are each ONE record — Request, PageMsg, Invalidate,
// DiffMsg, Fault, SyncEvent, Batch — serving as RPC argument and as the
// protocol routine's context alike, owned by whoever holds it: the sender
// until it is sent, then the service handler, which completes DSM/Thread/Node
// and hands the same pointer to the routine. Whoever consumes a record frees
// it, once; the diffs a DiffMsg carries are freed with it. Exactly-once
// delivery is the licence to recycle, and a lossy link keeps it (madeleine
// delivers no duplicate). Recovery's re-sends take fresh records; the two
// records a re-send or a late response still shares are left to the
// collector while recovery is on: a diff (FreeDiff) and a fault's timing
// (logTiming).

// recPools holds the free records. The lists start empty and fill with what
// the run frees — nothing is allocated ahead of use.
type recPools struct {
	requests freelist.List[*Request]
	pages    freelist.List[*PageMsg]
	invs     freelist.List[*Invalidate]
	diffMsgs freelist.List[*DiffMsg]
	diffs    freelist.List[*diffRec]
	faults   freelist.List[*Fault]
	timings  freelist.List[*FaultTiming]
	syncs    freelist.List[*SyncEvent]
	batches  freelist.List[*Batch]
}

// PoisonFreed is the use-after-free net, set only by tests (of this package
// and of those above it, which is why it is exported): put then fills a freed
// record with sentinels — nodes -1, pages all ones, pointers nil — and
// withholds it from reuse, so a reader that outlives its routine fails loudly
// instead of reading its successor's fields.
var PoisonFreed bool

// take pops a clean record from l, or makes one.
func take[T any](l *freelist.List[*T]) *T {
	if r, ok := l.Get(); ok {
		return r
	}
	return new(T)
}

// put ends r's life: it is zeroed and goes back on l for the next take.
func put[R interface{ reset(fill int) }](l *freelist.List[R], r R) {
	if PoisonFreed {
		r.reset(-1)
		return
	}
	r.reset(0)
	l.Put(r)
}

// diffRec is a pooled memory.Diff: TwinDiff, RecordPut and NewDiff take one,
// the dsm.diff handler frees what it was sent once DiffServer returns, and a
// routine that drops a diff it does not send frees it with FreeDiff.
type diffRec memory.Diff

// The reset methods clear a freed record; fill is 0, or -1 under PoisonFreed.
func (f *Fault) reset(fill int)        { *f = Fault{Node: fill, Addr: Addr(fill), Page: Page(fill)} }
func (r *Request) reset(fill int)      { *r = Request{Node: fill, Page: Page(fill), From: fill} }
func (m *DiffMsg) reset(fill int)      { *m = DiffMsg{Node: fill, From: fill} }
func (s *SyncEvent) reset(fill int)    { *s = SyncEvent{Node: fill, Lock: fill} }
func (ft *FaultTiming) reset(fill int) { *ft = FaultTiming{Total: sim.Duration(fill)} }
func (iv *Invalidate) reset(fill int) {
	*iv = Invalidate{Node: fill, Page: Page(fill), From: fill, NewOwner: fill}
}
func (m *PageMsg) reset(fill int) {
	*m = PageMsg{Node: fill, Page: Page(fill), From: fill, Owner: fill}
}

// reset keeps a diff's entry list and byte buffer for its next Compute;
// poisoned, it names the all-ones page and loses them.
func (r *diffRec) reset(fill int) {
	df := (*memory.Diff)(r)
	if fill != 0 {
		*df = memory.Diff{Page: memory.Page(fill)}
		return
	}
	df.Reset()
}

// reset keeps a Batch's buffers for its next life, emptied of what they
// pointed at (canonicalize cleared the tail its dedup left, and a longer
// envelope than the last may have left one in elems); poisoned, it loses them
// too.
func (b *Batch) reset(fill int) {
	if fill != 0 {
		*b = Batch{node: fill}
		return
	}
	clear(b.ops)
	clear(b.elems[:cap(b.elems)])
	clear(b.flights)
	*b = Batch{ops: b.ops[:0], elems: b.elems[:0], flights: b.flights[:0]}
}
