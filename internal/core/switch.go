package core

import (
	"fmt"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
)

// SwitchProtocol re-associates an allocated area with a different protocol.
// Section 2.3: the platform has no transparent support for this, "however,
// this can be achieved if needed through a careful synchronization at the
// program level (e.g. through barriers). Essentially, one has to keep the
// corresponding memory area from being accessed by the application threads
// during the protocol switch, since this operation involves modifications in
// the distributed page table on all nodes."
//
// The caller provides exactly that guarantee: no thread touches the area
// while SwitchProtocol runs (typically between two barriers), and every
// write to it has been released — a node other than the home still holding
// a twin or a recorded diff is refused. The switch resets every node's
// page-table entry — copies are dropped, ownership and rights return to the
// home node, dirty marks and protocol-private state are discarded (a home's
// twin or recorded diff back into its pool) — and the new protocol's page
// initializer runs. One control-message round trip per
// node is charged for the distributed table update.
func (d *DSM) SwitchProtocol(t *pm2.Thread, base Addr, size int, proto ProtoID) error {
	newProto := d.instance(proto) // validates the id
	first := pageOf(base)
	last := pageOf(base + Addr(size-1))
	// Validate quiescence and ownership of the whole range first.
	for pg := first; pg <= last; pg++ {
		pi, ok := d.dir[pg]
		if !ok {
			return fmt.Errorf("core: SwitchProtocol on unallocated page %d", pg)
		}
		for n := 0; n < d.rt.Nodes(); n++ {
			e := d.Entry(n, pg)
			if e.Pending {
				return fmt.Errorf("core: SwitchProtocol while node %d has a fetch in flight for page %d (area not quiescent)", n, pg)
			}
			// A twin or a recorded diff away from the home is a write the
			// home has not seen: the reset below would drop it.
			if n != pi.home && (HasTwin(e) || hasRecorded(e)) {
				return fmt.Errorf("core: SwitchProtocol while node %d holds unreleased writes to page %d (release them first)", n, pg)
			}
		}
	}
	for pg := first; pg <= last; pg++ {
		pi := d.dir[pg]
		pi.proto = proto
		d.dir[pg] = pi
		// If ownership moved away from the home under the old protocol,
		// the owner's copy is the authoritative one: bring it home first
		// (one page transfer on the wire).
		for n := 0; n < d.rt.Nodes(); n++ {
			if n == pi.home || !d.Entry(n, pg).Owner {
				continue
			}
			src := d.state[n].space.Frame(pg)
			if src == nil {
				continue
			}
			dst := d.state[pi.home].space.Ensure(pg)
			copy(dst.Data, src.Data)
			t.Advance(d.rt.Link(n, pi.home).Transfer(PageSize))
			break
		}
		for n := 0; n < d.rt.Nodes(); n++ {
			e := d.Entry(n, pg)
			e.Lock(t)
			e.ProbOwner = pi.home
			e.Owner = n == pi.home
			e.Copyset.Clear()
			resetProtoData(d, e)
			d.ClearDirty(n, pg)
			e.proto = proto // keep the hot-path cache in step with the directory
			if n == pi.home {
				// The home's copy is authoritative and survives.
				d.state[n].space.SetAccess(pg, memory.ReadWrite)
			} else {
				d.state[n].space.Drop(pg)
			}
			e.Unlock(t)
		}
		if init, ok := newProto.(PageInitializer); ok {
			init.InitPage(pg, pi.home)
		}
	}
	// The distributed page table update: one round trip per remote node,
	// charged on the out and back links separately (they may differ under
	// an asymmetric topology).
	for n := 0; n < d.rt.Nodes(); n++ {
		if n != t.Node() {
			t.Advance(d.rt.Link(t.Node(), n).CtrlMsg + d.rt.Link(n, t.Node()).CtrlMsg)
		}
	}
	return nil
}
