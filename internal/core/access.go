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

// Access performs an n-byte shared-memory access on behalf of thread t,
// running the page's consistency protocol on faults and retrying until the
// access succeeds, exactly like the SIGSEGV handler + instruction restart
// cycle of the real system. buf is the destination (read) or source (write).
//
// Every accessor in this file has this shape — try the access on the node's
// Space, return on a hit, hand the error to miss and go round again — so a
// hit runs nothing but the Space's own check: the software equivalent of a
// load the MMU lets through.
func (d *DSM) Access(t *pm2.Thread, addr Addr, buf []byte, write bool) {
	for retry := 0; ; retry++ {
		space := d.state[t.Node()].space // the thread may migrate between retries
		var err error
		if write {
			err = space.Write(addr, buf)
		} else {
			err = space.Read(addr, buf)
		}
		if err == nil {
			return
		}
		d.miss(t, addr, err, retry)
	}
}

// miss handles the retry-th consecutive refusal of one access: anything but
// a *memory.Fault is a program error, and a fault runs the page's protocol
// so the caller can retry. The fault is the Space's one record of its last
// refusal, so it is read out before anything here lets another thread run.
func (d *DSM) miss(t *pm2.Thread, addr Addr, err error, retry int) {
	flt, ok := err.(*memory.Fault)
	if !ok {
		panic(fmt.Sprintf("core: invalid shared access by %s: %v", t.Name(), err))
	}
	pg, write := flt.Page, flt.Write
	if retry >= maxFaultRetries {
		panic(fmt.Sprintf("core: access at %#x by %s still faulting after %d protocol invocations",
			addr, t.Name(), retry))
	}
	if retry > 2 {
		// A fetched copy keeps being invalidated before the access
		// can retry: a writer elsewhere is reclaiming the page in
		// lockstep with our refetches. Real systems escape through
		// OS timing noise; the simulation injects the equivalent —
		// a deterministic-per-seed jittered backoff that shifts
		// our next fetch out of phase with the writer.
		maxUS := retry * 10
		if maxUS > 500 {
			maxUS = 500
		}
		jitter := sim.Duration(1+d.rt.Engine().Rand().Intn(maxUS)) * sim.Microsecond
		t.Advance(jitter)
	}
	d.handleFault(t, addr, pg, write)
}

// handleFault charges the detection cost and dispatches the page's protocol
// fault handler. If the handler returns with the entry lock held (the
// toolbox's anti-livelock handoff), the retried access in Access proceeds
// before any competing server can steal the page; the lock is dropped after
// one more memory operation via deferUnlock.
func (d *DSM) handleFault(t *pm2.Thread, addr Addr, pg Page, write bool) {
	start := t.Now()
	t.Advance(d.costs.Fault) // catch signal, extract fault parameters
	node := t.Node()
	e := d.Entry(node, pg)
	proto := d.instance(e.proto)
	// The timing record outlives the fault in the ring, and comes from
	// there: the record a later fault evicts serves the next one.
	ft := take(&d.recs.timings)
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
	for retry := 0; ; retry++ {
		v, err := d.state[t.Node()].space.ReadUint32(addr)
		if err == nil {
			return v
		}
		d.miss(t, addr, err, retry)
	}
}

// WriteUint32 stores a shared little-endian uint32.
func (d *DSM) WriteUint32(t *pm2.Thread, addr Addr, v uint32) {
	for retry := 0; ; retry++ {
		err := d.state[t.Node()].space.WriteUint32(addr, v)
		if err == nil {
			return
		}
		d.miss(t, addr, err, retry)
	}
}

// ReadUint64 loads a shared little-endian uint64.
func (d *DSM) ReadUint64(t *pm2.Thread, addr Addr) uint64 {
	for retry := 0; ; retry++ {
		v, err := d.state[t.Node()].space.ReadUint64(addr)
		if err == nil {
			return v
		}
		d.miss(t, addr, err, retry)
	}
}

// WriteUint64 stores a shared little-endian uint64.
func (d *DSM) WriteUint64(t *pm2.Thread, addr Addr, v uint64) {
	for retry := 0; ; retry++ {
		err := d.state[t.Node()].space.WriteUint64(addr, v)
		if err == nil {
			return
		}
		d.miss(t, addr, err, retry)
	}
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
