package core

import (
	"slices"
	"sort"

	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// Entry is one node's page-table entry for one shared page: the DSM page
// manager's unit of state (Section 2.2, "Page manager"). The field set
// covers what the built-in protocols need; as in the real system, a field
// may carry different semantics under different protocols, be unused by
// some, and protocols can hang arbitrary private state off ProtoData.
type Entry struct {
	Page Page

	// ProbOwner is the probable-owner hint of the Li-Hudak dynamic
	// distributed manager: requests are forwarded along these hints until
	// they reach the true owner. Fixed-manager protocols keep it equal to
	// Home.
	ProbOwner int

	// Home is the page's fixed home node (fixed distributed managers and
	// home-based protocols).
	Home int

	// Owner reports whether this node currently owns the page.
	Owner bool

	// Copyset records the nodes holding read copies as a bitmap whose
	// first word is inline, so emptying it and refilling it below node 64
	// never allocates. Iteration is always ascending node id, the same
	// deterministic order the earlier sorted-slice representation gave.
	// It is meaningful on the owner (dynamic managers) or home
	// (home-based protocols).
	Copyset NodeSet

	// Pending marks a fetch in flight from this node, so concurrent
	// faulting threads coalesce onto one request instead of each sending
	// their own — the multithreaded adaptation Section 3 describes.
	Pending bool
	// reqAt is the node holding this node's pending request — in flight to
	// it, queued or served there — until a server sends the page (then
	// reqServed). A crash of that node strands the fetch (reqStranded), as
	// does the network discarding the request or page on its way, and
	// FetchPage sends it again. An int32 beside Pending fits in its padding,
	// so an entry costs no more than without it.
	reqAt int32

	// ProtoData is protocol-private per-page state (e.g. the hbrc_mw twin,
	// or adaptive's write-fault count).
	ProtoData interface{}

	// InvalSeq counts invalidations received for this page on this node.
	// It closes the stale-install race: a fast invalidation control
	// message can overtake an in-flight page transfer, so a page copy
	// requested before the invalidation must not be installed after it.
	// The core bumps it on every arriving invalidation; FetchPage
	// snapshots it into pendingSeq; the install discards non-ownership
	// copies whose snapshot is out of date and lets the access refault.
	InvalSeq   uint64
	pendingSeq uint64

	// reqSeq numbers this node's page requests for this page. Responses
	// echo it, and the install discards responses to superseded requests —
	// a fetch sent again after a crash must not let the original's late
	// response install stale data. Fault-free runs never send a fetch twice,
	// so the sequence is always current there.
	reqSeq uint64

	// proto caches the managing protocol's id from the directory at entry
	// creation, so the fault/serve hot paths resolve their protocol from
	// node-local state (see protoAt). SwitchProtocol rewrites it on every
	// node's entry alongside the directory.
	proto ProtoID

	// mu guards the entry; cond is embedded, its L set to &mu by newEntry,
	// so an entry is one object.
	mu   sim.Mutex
	cond sim.Cond
}

// reqAt's states besides a node id.
const (
	reqServed   = -1
	reqStranded = -2
)

// newEntry builds the entry for pg on one node from the allocation metadata.
func newEntry(pg Page, pi pageInfo) *Entry {
	e := &Entry{
		Page:      pg,
		ProbOwner: pi.home,
		Home:      pi.home,
		proto:     pi.proto,
	}
	e.cond.L = &e.mu
	return e
}

// entryLeafBits is log2 of the pages one second-level table of a node's
// entries spans: one isomalloc slice, as for memory.Space's frames.
const (
	entryLeafBits = 18
	entryLeafMask = 1<<entryLeafBits - 1
)

// entry returns the node's entry for pg, or nil before its first touch.
func (ns *nodeState) entry(pg Page) *Entry {
	if t, i := uint64(pg)>>entryLeafBits, uint64(pg)&entryLeafMask; t < uint64(len(ns.table)) && i < uint64(len(ns.table[t])) {
		return ns.table[t][i]
	}
	return nil
}

// Entry returns node's page-table entry for pg, creating it from the
// allocation metadata on first touch.
func (d *DSM) Entry(node int, pg Page) *Entry {
	ns := d.state[node]
	if e := ns.entry(pg); e != nil {
		return e
	}
	pi, ok := d.dir[pg]
	if !ok {
		panic("core: page table entry requested for unallocated page")
	}
	e := newEntry(pg, pi)
	t, i := int(uint64(pg)>>entryLeafBits), int(uint64(pg)&entryLeafMask)
	if t >= len(ns.table) {
		ns.table = append(ns.table, make([][]*Entry, t+1-len(ns.table))...)
	}
	if i >= len(ns.table[t]) {
		// Grown by doubling from 8 entries: a node touches a handful of
		// a slice's pages first, then more, so few growths make a leaf.
		leaf := make([]*Entry, max(i+1, 2*len(ns.table[t]), 8))
		copy(leaf, ns.table[t])
		ns.table[t] = leaf
	}
	ns.table[t][i] = e
	// Keep the sorted page list in step (binary insert): PagesOn sweeps
	// run every release, entry creation happens once per (node, page).
	k := sort.Search(len(ns.pages), func(k int) bool { return ns.pages[k] >= pg })
	ns.pages = append(ns.pages, 0)
	copy(ns.pages[k+1:], ns.pages[k:])
	ns.pages[k] = pg
	return e
}

// Lock acquires the entry's mutex. Every protocol action that reads or
// writes entry state must hold it; the toolbox routines document which locks
// they take.
func (e *Entry) Lock(t *pm2.Thread) { e.mu.Lock(t.Proc()) }

// Unlock releases the entry's mutex.
func (e *Entry) Unlock(t *pm2.Thread) { e.mu.Unlock(t.Proc()) }

// Wait blocks on the entry's condition variable (entry lock held), releasing
// the lock while suspended. Used by faulting threads waiting for a page and
// by servers waiting for in-flight ownership.
func (e *Entry) Wait(t *pm2.Thread) { e.cond.Wait(t.Proc()) }

// Broadcast wakes all threads blocked in Wait.
func (e *Entry) Broadcast() { e.cond.Broadcast() }

// InCopyset reports whether node is recorded in the copyset.
func (e *Entry) InCopyset(node int) bool { return e.Copyset.Contains(node) }

// AddCopyset inserts node into the copyset if absent.
func (e *Entry) AddCopyset(node int) { e.Copyset.Add(node) }

// RemoveCopyset deletes node from the copyset.
func (e *Entry) RemoveCopyset(node int) { e.Copyset.Remove(node) }

// TakeCopyset empties the copyset and returns its former contents;
// iteration over the returned set is ascending, the deterministic
// invalidation order the old sorted slice guaranteed.
func (e *Entry) TakeCopyset() NodeSet { return e.Copyset.Take() }

// PagesOn returns the pages node currently has table entries for, sorted.
// Protocol release hooks use it to sweep per-node state deterministically.
// The list is maintained incrementally at entry creation, so this is a copy,
// not a rebuild-and-sort — appended to buf, which lets a sweep that runs every
// acquire bring its own (stack) buffer; the copy keeps the sweep safe against
// entries the sweep itself creates.
func (d *DSM) PagesOn(node int, buf []Page) []Page {
	return append(buf, d.state[node].pages...)
}

// MarkDirty marks pg as written on node since its last release. The write
// paths of the protocols that act at release mark; their release sweeps
// (DirtyPages) clear. The marks live in the node's page table, so a cold
// restart's fresh table starts clean, and SwitchProtocol clears them with
// the rest of the entry.
func (d *DSM) MarkDirty(node int, pg Page) {
	ns := d.state[node]
	if k, found := slices.BinarySearch(ns.dirty, pg); !found {
		ns.dirty = slices.Insert(ns.dirty, k, pg)
	}
}

// ClearDirty removes node's dirty mark on pg, if any.
func (d *DSM) ClearDirty(node int, pg Page) {
	ns := d.state[node]
	if k, found := slices.BinarySearch(ns.dirty, pg); found {
		ns.dirty = slices.Delete(ns.dirty, k, k+1)
	}
}

// PageList is a hook's scratch list of pages, a record (see records.go): a
// sweep takes one with NewPageList, fills Pages (DirtyPages, PagesOn) and
// frees it with FreePageList once the sweep is over. The buffer is kept, so
// it grows to the longest sweep once and a warm sweep allocates nothing.
type PageList struct{ Pages []Page }

// NewPageList takes an empty page list.
func (d *DSM) NewPageList() *PageList { return take(&d.recs.sweeps) }

// FreePageList ends l's life: the caller must not touch it again.
func (d *DSM) FreePageList(l *PageList) { put(&d.recs.sweeps, l) }

// DirtyPages appends node's dirty pages that protocol p manages to buf, in
// ascending order: the deterministic sweep of a release hook. Pages of other
// protocols are left to theirs. Like PagesOn's, the list is a copy, so the
// sweep may clear and re-mark pages as it goes.
func (d *DSM) DirtyPages(p Protocol, node int, buf []Page) []Page {
	ns := d.state[node]
	for _, pg := range ns.dirty {
		if d.instances[d.Entry(node, pg).proto] == p {
			buf = append(buf, pg)
		}
	}
	return buf
}
