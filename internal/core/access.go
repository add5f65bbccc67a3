package core

import (
	"encoding/binary"
	"fmt"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// maxFaultRetries bounds the fault-retry loop; a protocol that cannot make
// an access succeed within this many handler invocations is broken, and the
// core fails fast instead of livelocking the simulation.
const maxFaultRetries = 1000

// Access performs an n-byte shared-memory access on behalf of thread t; buf
// is the destination (read) or source (write). Like every accessor in this
// file it tries the hit on the node's Space — a load the MMU lets through:
// inlined, with no error value — and on a refusal calls settle, the SIGSEGV
// handler + instruction restart cycle of the real system, then performs the
// access on the Space settle returns.
func (d *DSM) Access(t *pm2.Thread, addr Addr, buf []byte, write bool) {
	space := &d.state[t.Node()].space
	if write {
		if !space.Store(addr, buf) {
			d.settle(t, addr, len(buf), true).Store(addr, buf)
		}
	} else if !space.Load(addr, buf) {
		d.settle(t, addr, len(buf), false).Load(addr, buf)
	}
}

// settle runs the page's protocol on each fault of an n-byte access at addr
// until t's node would accept it, and returns that node's Space. The fault is
// the Space's record of its last refusal: it is read before another thread runs.
func (d *DSM) settle(t *pm2.Thread, addr Addr, n int, write bool) *memory.Space {
	for retry := 0; ; retry++ {
		space := &d.state[t.Node()].space // the thread may migrate between retries
		err := space.Check(addr, n, write)
		if err == nil {
			return space
		}
		flt, ok := err.(*memory.Fault)
		if !ok {
			panic(fmt.Sprintf("core: invalid shared access by %s: %v", t.Name(), err))
		}
		if retry >= maxFaultRetries {
			panic(fmt.Sprintf("core: access at %#x by %s still faulting after %d protocol invocations", addr, t.Name(), retry))
		}
		if retry > 2 {
			// A fetched copy keeps being invalidated before the access
			// can retry: a writer elsewhere is reclaiming the page in
			// lockstep with our refetches. Real systems escape through
			// OS timing noise; the simulation injects the equivalent —
			// a deterministic-per-seed jittered backoff that shifts
			// our next fetch out of phase with the writer.
			t.Advance(sim.Duration(1+d.rt.Engine().Rand().Intn(min(retry*10, 500))) * sim.Microsecond)
		}
		d.handleFault(t, addr, flt.Page, flt.Write)
	}
}

// handleFault charges the detection cost and dispatches the page's protocol
// fault handler. If the handler returns with the entry lock held (the
// toolbox's anti-livelock handoff), it is dropped here, and the retried
// access still runs before any competing server can steal the page.
func (d *DSM) handleFault(t *pm2.Thread, addr Addr, pg Page, write bool) {
	start := t.Now()
	t.Advance(d.costs.Fault) // catch signal, extract fault parameters
	node := t.Node()
	e := d.Entry(node, pg)
	proto := d.instance(e.proto)
	// The timing record outlives the fault in the ring, and comes from
	// there: the record a later fault evicts serves the next one (newTiming).
	ft := d.recs.newTiming()
	if d.faultSeq++; d.faultSeq == 0 {
		d.faultSeq = 1 // wrapped: 0 marks a freed record
	}
	ft.Start, ft.Protocol, ft.Write, ft.Detect, ft.seq = start, proto.Name(), write, d.costs.Fault, d.faultSeq
	f := take(&d.recs.faults)
	f.DSM, f.Thread, f.Node, f.Addr, f.Page, f.Write, f.Entry, f.Timing = d, t, node, addr, pg, write, e, ft
	d.nodeFaults[node]++
	d.profFault(node, pg, write)
	if write {
		d.stats.WriteFaults++
		proto.WriteFaultHandler(f)
	} else {
		d.stats.ReadFaults++
		proto.ReadFaultHandler(f)
	}
	ft.Total = t.Now().Sub(start)
	d.logTiming(ft)
	if f.entryLocked {
		// Safe to release before the retry: the current thread keeps
		// the simulation token until its next blocking operation, and
		// the retried memory access never blocks, so no competing
		// server can run in between.
		e.Unlock(t)
	}
	put(&d.recs.faults, f)
}

// logTiming puts a finished fault's timing into the ring. The record the ring
// evicts serves a later fault; a late response still carrying it writes
// nothing (liveTiming).
func (d *DSM) logTiming(ft *FaultTiming) {
	if old := d.timings.Add(ft); old != nil {
		put(&d.recs.timings, old)
	}
}

// Read copies len(buf) shared bytes at addr into buf.
func (d *DSM) Read(t *pm2.Thread, addr Addr, buf []byte) { d.Access(t, addr, buf, false) }

// Write copies buf into shared memory at addr.
func (d *DSM) Write(t *pm2.Thread, addr Addr, buf []byte) { d.Access(t, addr, buf, true) }

// ReadUint32 loads a shared little-endian uint32.
func (d *DSM) ReadUint32(t *pm2.Thread, addr Addr) uint32 {
	v, ok := d.state[t.Node()].space.LoadUint32(addr)
	if !ok {
		v, _ = d.settle(t, addr, 4, false).LoadUint32(addr)
	}
	return v
}

// WriteUint32 stores a shared little-endian uint32.
func (d *DSM) WriteUint32(t *pm2.Thread, addr Addr, v uint32) {
	if !d.state[t.Node()].space.StoreUint32(addr, v) {
		d.settle(t, addr, 4, true).StoreUint32(addr, v)
	}
}

// ReadUint64 loads a shared little-endian uint64.
func (d *DSM) ReadUint64(t *pm2.Thread, addr Addr) uint64 {
	v, ok := d.state[t.Node()].space.LoadUint64(addr)
	if !ok {
		v, _ = d.settle(t, addr, 8, false).LoadUint64(addr)
	}
	return v
}

// WriteUint64 stores a shared little-endian uint64.
func (d *DSM) WriteUint64(t *pm2.Thread, addr Addr, v uint64) {
	if !d.state[t.Node()].space.StoreUint64(addr, v) {
		d.settle(t, addr, 8, true).StoreUint64(addr, v)
	}
}

// ReadHit is the hit of Read alone, over any number of pages of t's node: a
// refusal never faults and touches nothing.
func (d *DSM) ReadHit(t *pm2.Thread, addr Addr, buf []byte) bool {
	return d.state[t.Node()].space.LoadSpan(addr, buf)
}

// WriteHit is the hit of Write alone, all or nothing, like ReadHit.
func (d *DSM) WriteHit(t *pm2.Thread, addr Addr, buf []byte) bool {
	return d.state[t.Node()].space.StoreSpan(addr, buf)
}

// Get performs an object read through the page protocol's get primitive if
// it provides one (java_ic/java_pf), falling back to the paged access path
// otherwise, so object-style programs run under any protocol.
func (d *DSM) Get(t *pm2.Thread, addr Addr, buf []byte) {
	d.stats.GetOps++
	if op, ok := d.protoAt(t.Node(), pageOf(addr)).(ObjectProtocol); ok {
		op.Get(&ObjAccess{DSM: d, Thread: t, Addr: addr, Buf: buf, Write: false})
		return
	}
	d.Access(t, addr, buf, false)
}

// Put performs an object write through the page protocol's put primitive if
// it provides one, falling back to the paged access path otherwise.
func (d *DSM) Put(t *pm2.Thread, addr Addr, buf []byte) {
	d.stats.PutOps++
	if op, ok := d.protoAt(t.Node(), pageOf(addr)).(ObjectProtocol); ok {
		op.Put(&ObjAccess{DSM: d, Thread: t, Addr: addr, Buf: buf, Write: true})
		return
	}
	d.Access(t, addr, buf, true)
}

// GetUint64 is Get for a little-endian uint64 field.
func (d *DSM) GetUint64(t *pm2.Thread, addr Addr) uint64 {
	var b [8]byte
	d.Get(t, addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// PutUint64 is Put for a little-endian uint64 field.
func (d *DSM) PutUint64(t *pm2.Thread, addr Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.Put(t, addr, b[:])
}
