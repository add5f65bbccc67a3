package core

import (
	"fmt"
	"reflect"

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
// it, once; a fetch sent again after a crash takes a fresh one. Two records
// may outlive their first holder: a diff is held by each envelope carrying it
// and by its sender until the ack, and the last holder to let go frees it
// (FreeDiff); a fault's timing outlives the fault in the ring, and a response
// that arrives once the ring recycled it writes nothing (liveTiming). A fault
// takes the timing the ring last evicted; until the ring is full there is
// none, and newTiming carves one out of a chunk of timingChunk records. The
// ring still recycles by eviction alone, and a chunk lives on while any of its
// records is referenced. A barrier generation's records recycle too: an
// arrival is its caller's until the manager answers, and a grant has one
// holder per participant (barrierGrant); a hook's PageList is its sweep's.

// recPools holds the free records. The lists start empty and fill with what
// the run frees — nothing is allocated ahead of use but the rest of a timing
// chunk.
type recPools struct {
	requests freelist.List[*Request]
	pages    freelist.List[*PageMsg]
	invs     freelist.List[*Invalidate]
	diffMsgs freelist.List[*DiffMsg]
	diffs    freelist.List[*diffRec]
	faults   freelist.List[*Fault]
	timings  freelist.List[*FaultTiming]
	chunk    []FaultTiming // the uncarved rest of the last timing chunk
	syncs    freelist.List[*SyncEvent]
	batches  freelist.List[*Batch]
	arrivals freelist.List[*barrierReq]
	grants   freelist.List[*barrierGrant]
	sweeps   freelist.List[*PageList]
	acks     freelist.List[*sim.Chan] // invalidation rounds' queues (see InvalidateCopies)
}

// PoisonFreed is the use-after-free net, set only by tests (of this package
// and of those above it, which is why it is exported): put then fills a freed
// record with sentinels — nodes -1, pages all ones, pointers nil — and
// withholds it from reuse, so a reader that outlives its routine fails loudly
// instead of reading its successor's fields, and so does a second free.
var PoisonFreed bool

// take pops a clean record from l, or makes one.
func take[T any](l *freelist.List[*T]) *T {
	if r, ok := l.Get(); ok {
		return r
	}
	return new(T)
}

// timingChunk is how many fault-timing records one allocation makes. A
// FaultTiming is 112 B and holds pointers, so a chunk over 512 B carries an
// 8-byte malloc header: 18 records are 2 024 B and fill the 2 048 B size
// class, where 16 would round 1 800 B up to it.
const timingChunk = 18

// newTiming returns a clean timing record: the one the ring last evicted, or
// the next uncarved one of the current chunk. A record PoisonFreed withheld is
// never offered again, though its chunk-mates live on.
func (p *recPools) newTiming() *FaultTiming {
	if ft, ok := p.timings.Get(); ok {
		return ft
	}
	if len(p.chunk) == 0 {
		p.chunk = new([timingChunk]FaultTiming)[:]
	}
	ft := &p.chunk[0]
	p.chunk = p.chunk[1:]
	return ft
}

// put ends r's life: it is zeroed and goes back on l for the next take.
// Poisoned, a record that already reads as sentinels was freed twice.
func put[R interface{ reset(fill int) }](l *freelist.List[R], r R) {
	if PoisonFreed {
		was := reflect.ValueOf(r).Elem().Interface()
		if r.reset(-1); reflect.DeepEqual(was, reflect.ValueOf(r).Elem().Interface()) {
			panic(fmt.Sprintf("core: %T freed twice", r))
		}
		return
	}
	r.reset(0)
	l.Put(r)
}

// diffRec is a pooled memory.Diff: TwinDiff, RecordPut and NewDiff take one.
// Every envelope that ships it holds it until the dsm.diff handler's
// DiffServer returns, and so does its sender until the ack or the re-route;
// Refs counts the holders beyond the first, and each lets go with FreeDiff.
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

// reset keeps a barrier arrival's notice buffer for the node's next
// arrival; poisoned, it loses it.
func (r *barrierReq) reset(fill int) {
	notices := r.notices[:0]
	if fill != 0 {
		notices = nil
	}
	*r = barrierReq{id: fill, from: fill, participant: fill, gen: fill, notices: notices}
}

// reset keeps a grant's notice buffer for a later generation; poisoned, it
// loses it.
func (g *barrierGrant) reset(fill int) {
	notices := g.notices[:0]
	if fill != 0 {
		notices = nil
	}
	*g = barrierGrant{notices: notices, holders: fill}
}

// reset keeps a page list's buffer for the next sweep; poisoned, it holds
// the all-ones page alone.
func (l *PageList) reset(fill int) {
	if fill != 0 {
		*l = PageList{Pages: []Page{Page(fill)}}
		return
	}
	l.Pages = l.Pages[:0]
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
