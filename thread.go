package dsmpm2

import (
	"fmt"

	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
	"dsmpm2/internal/trace"
)

// Thread is an application thread running on the DSM platform. Its methods
// are the multithreaded DSM interface: typed shared accesses, object get/put
// primitives, cluster-wide synchronization, explicit migration, and compute
// accounting. When tracing is enabled every elementary operation is recorded
// as a span for post-mortem analysis.
type Thread struct {
	sys *System
	th  *pm2.Thread
}

// noSpan is what begin returns when tracing is off; virtual time is never
// negative, so it cannot collide with a real start.
const noSpan Time = -1

// begin opens a trace span around one elementary operation and returns its
// start time for end. Every traced Thread method is begin, the operation,
// end — no closure, so with tracing off an operation costs two predictable
// branches on top of the call it wraps.
func (t *Thread) begin() Time {
	if !t.sys.tr.Enabled() {
		return noSpan
	}
	return t.th.Now()
}

// end closes the span begin opened.
func (t *Thread) end(name string, start Time) {
	if start != noSpan {
		t.record(name, start)
	}
}

// record appends the finished span.
func (t *Thread) record(name string, start Time) {
	t.sys.tr.Add(trace.Span{
		Name:   name,
		Node:   t.th.Node(),
		Thread: t.th.Name(),
		Start:  start,
		End:    t.th.Now(),
	})
}

// Node returns the node the thread currently runs on.
func (t *Thread) Node() int { return t.th.Node() }

// Name returns the thread's name.
func (t *Thread) Name() string { return t.th.Name() }

// Now returns the current virtual time.
func (t *Thread) Now() Time { return t.th.Now() }

// Migrations reports how many times the thread has migrated.
func (t *Thread) Migrations() int { return t.th.Migrations() }

// Compute charges d of CPU time on the thread's current node; threads
// sharing a node serialize here.
func (t *Thread) Compute(d Duration) {
	start := t.begin()
	t.th.Compute(d)
	t.end("compute", start)
}

// Sleep consumes virtual time without occupying a CPU.
func (t *Thread) Sleep(d Duration) { t.th.Advance(d) }

// MigrateTo moves the thread to another node explicitly, paying the
// stack-size-dependent migration latency.
func (t *Thread) MigrateTo(node int) {
	start := t.begin()
	t.th.MigrateTo(node)
	t.end("migrate", start)
}

// Join blocks until other finishes.
func (t *Thread) Join(other *Thread) { t.th.Join(other.th) }

// Read copies shared memory at addr into buf.
func (t *Thread) Read(addr Addr, buf []byte) {
	start := t.begin()
	t.sys.dsm.Read(t.th, addr, buf)
	t.end("dsm_read", start)
}

// Write copies buf into shared memory at addr.
func (t *Thread) Write(addr Addr, buf []byte) {
	start := t.begin()
	t.sys.dsm.Write(t.th, addr, buf)
	t.end("dsm_write", start)
}

// ReadHit copies shared memory at addr into buf, as Read does, if every page
// it covers is readable on the thread's node, and reports whether it did: one
// rights check per page, as under the MMU. It never faults, yields, counts or
// panics, and a refusal touches nothing; with tracing on it always refuses,
// so a traced run keeps every per-access span.
func (t *Thread) ReadHit(addr Addr, buf []byte) bool {
	return !t.sys.tr.Enabled() && t.sys.dsm.ReadHit(t.th, addr, buf)
}

// WriteHit copies buf into shared memory at addr, as Write does, if every
// page it covers is writable on the thread's node; all or nothing, like ReadHit.
func (t *Thread) WriteHit(addr Addr, buf []byte) bool {
	return !t.sys.tr.Enabled() && t.sys.dsm.WriteHit(t.th, addr, buf)
}

// ReadUint32 loads a shared little-endian uint32.
func (t *Thread) ReadUint32(addr Addr) uint32 {
	start := t.begin()
	v := t.sys.dsm.ReadUint32(t.th, addr)
	t.end("dsm_read", start)
	return v
}

// WriteUint32 stores a shared little-endian uint32.
func (t *Thread) WriteUint32(addr Addr, v uint32) {
	start := t.begin()
	t.sys.dsm.WriteUint32(t.th, addr, v)
	t.end("dsm_write", start)
}

// ReadUint64 loads a shared little-endian uint64.
func (t *Thread) ReadUint64(addr Addr) uint64 {
	start := t.begin()
	v := t.sys.dsm.ReadUint64(t.th, addr)
	t.end("dsm_read", start)
	return v
}

// WriteUint64 stores a shared little-endian uint64.
func (t *Thread) WriteUint64(addr Addr, v uint64) {
	start := t.begin()
	t.sys.dsm.WriteUint64(t.th, addr, v)
	t.end("dsm_write", start)
}

// ReadInt64 loads a shared int64.
func (t *Thread) ReadInt64(addr Addr) int64 { return int64(t.ReadUint64(addr)) }

// WriteInt64 stores a shared int64.
func (t *Thread) WriteInt64(addr Addr, v int64) { t.WriteUint64(addr, uint64(v)) }

// Get reads shared data through the protocol's get primitive (object
// programs; falls back to the paged path for non-object protocols).
func (t *Thread) Get(addr Addr, buf []byte) {
	start := t.begin()
	t.sys.dsm.Get(t.th, addr, buf)
	t.end("get", start)
}

// Put writes shared data through the protocol's put primitive.
func (t *Thread) Put(addr Addr, buf []byte) {
	start := t.begin()
	t.sys.dsm.Put(t.th, addr, buf)
	t.end("put", start)
}

// GetField reads field i of obj.
func (t *Thread) GetField(obj ObjRef, i int) uint64 {
	start := t.begin()
	v := t.sys.dsm.GetField(t.th, obj, i)
	t.end("get", start)
	return v
}

// PutField writes field i of obj.
func (t *Thread) PutField(obj ObjRef, i int, v uint64) {
	start := t.begin()
	t.sys.dsm.PutField(t.th, obj, i, v)
	t.end("put", start)
}

// Acquire takes a cluster-wide DSM lock, running the active protocols'
// acquire consistency actions.
func (t *Thread) Acquire(lock int) {
	start := t.begin()
	t.sys.dsm.Acquire(t.th, lock)
	t.end("lock_acquire", start)
}

// Release runs the active protocols' release consistency actions, then
// releases the lock.
func (t *Thread) Release(lock int) {
	start := t.begin()
	t.sys.dsm.Release(t.th, lock)
	t.end("lock_release", start)
}

// Barrier waits on a cluster-wide barrier (a release followed by an acquire
// for consistency purposes).
func (t *Thread) Barrier(bar int) {
	start := t.begin()
	t.sys.dsm.Barrier(t.th, bar)
	t.end("barrier", start)
}

// CondWait atomically releases the condition's lock and blocks until
// signalled, then re-acquires the lock (Mesa semantics: re-check the
// predicate in a loop).
func (t *Thread) CondWait(cond int) {
	start := t.begin()
	t.sys.dsm.CondWait(t.th, cond)
	t.end("cond_wait", start)
}

// CondSignal wakes the oldest waiter on the condition.
func (t *Thread) CondSignal(cond int) {
	start := t.begin()
	t.sys.dsm.CondSignal(t.th, cond)
	t.end("cond_signal", start)
}

// CondBroadcast wakes every waiter on the condition.
func (t *Thread) CondBroadcast(cond int) {
	start := t.begin()
	t.sys.dsm.CondBroadcast(t.th, cond)
	t.end("cond_signal", start)
}

// SwitchProtocol re-associates a shared area with another protocol (by
// name). The caller must guarantee the area is quiescent — no thread may
// touch it during the switch; bracket it with barriers (Section 2.3).
func (t *Thread) SwitchProtocol(base Addr, size int, protocol string) error {
	id, ok := t.sys.Protocol(protocol)
	if !ok {
		return fmt.Errorf("dsmpm2: unknown protocol %q", protocol)
	}
	return t.sys.dsm.SwitchProtocol(t.th, base, size, id)
}

// System returns the owning platform instance.
func (t *Thread) System() *System { return t.sys }

// Queue is a FIFO between threads, outside shared memory: a dispatcher pushes
// work and a server thread takes it in arrival order. It costs no network
// message and no DSM access. The zero value is empty; a Queue must not be
// copied after first use.
type Queue struct{ ch sim.Chan }

// Push appends v and wakes the oldest thread waiting in Recv, if any; it
// never blocks.
func (q *Queue) Push(v interface{}) { q.ch.Push(v) }

// Recv removes and returns the oldest value, blocking t until there is one.
func (q *Queue) Recv(t *Thread) interface{} { return q.ch.Recv(t.th.Proc()) }

// PM2 exposes the underlying PM2 thread for advanced use.
func (t *Thread) PM2() *pm2.Thread { return t.th }
