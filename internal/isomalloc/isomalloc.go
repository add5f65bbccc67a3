// Package isomalloc implements PM2's iso-address dynamic allocation scheme.
//
// The isomalloc routine guarantees that a range of virtual addresses
// allocated by a thread on one node is left free on every other node, so a
// migrating thread finds its stack and dynamically allocated data at the same
// virtual address on the destination node, and all its pointers stay valid
// (Antoniu, Bougé, Namyst, RTSPP '99; Section 2.1 of the paper).
//
// Here the shared virtual address space is simulated: Addr is an offset into
// a global space that every node backs with its own page frames. The
// allocator partitions the space into per-node slices so allocations made on
// different nodes can never collide, and hands out page-aligned ranges.
package isomalloc

import (
	"errors"
	"fmt"
)

// Addr is a simulated virtual address in the global iso-address space.
type Addr uint64

// ErrOutOfSlice reports that a node exhausted its slice of the iso-address
// space.
var ErrOutOfSlice = errors.New("isomalloc: node address slice exhausted")

// ErrBadFree reports a Free of an address that was never allocated.
var ErrBadFree = errors.New("isomalloc: free of unallocated address")

// Range is an allocated region of the iso-address space.
type Range struct {
	Base Addr
	Size int // bytes, always a multiple of the page size
	Node int // node the allocation was made on
}

// End returns the first address past the range.
func (r Range) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the range.
func (r Range) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// Allocator carves a global address space into per-node slices and serves
// page-aligned allocations from them.
type Allocator struct {
	pageSize  int
	sliceSize Addr
	nodes     int

	next   []Addr           // per node: next free address in its slice
	allocs map[Addr]*Range  // live allocations by base address
	freed  map[int][]*Range // per node free lists for reuse
}

// SliceBytes is the size of each node's slice of the iso-address space.
// 1 GiB per node comfortably exceeds anything the experiments allocate.
const SliceBytes = 1 << 30

// StaticBase is where the static DSM data segment (the paper's
// BEGIN_DSM_DATA/END_DSM_DATA block) is mapped. It lives below every node
// slice so it can never collide with dynamic allocations.
const StaticBase Addr = 0x1000

// New creates an allocator for nodes nodes with the given page size.
func New(nodes, pageSize int) *Allocator {
	if nodes < 1 || pageSize < 1 {
		panic("isomalloc: invalid allocator geometry")
	}
	a := &Allocator{
		pageSize:  pageSize,
		sliceSize: SliceBytes,
		nodes:     nodes,
		next:      make([]Addr, nodes),
		allocs:    make(map[Addr]*Range),
		freed:     make(map[int][]*Range),
	}
	for n := 0; n < nodes; n++ {
		a.next[n] = a.sliceBase(n)
	}
	return a
}

// sliceBase returns the first address of node n's slice. Slice 0 starts at
// 1 GiB, leaving the low gigabyte for the static segment.
func (a *Allocator) sliceBase(n int) Addr {
	return Addr(n+1) * a.sliceSize
}

// PageSize returns the allocator's page size.
func (a *Allocator) PageSize() int { return a.pageSize }

// roundUp rounds size up to a whole number of pages.
func (a *Allocator) roundUp(size int) int {
	pages := (size + a.pageSize - 1) / a.pageSize
	if pages == 0 {
		pages = 1
	}
	return pages * a.pageSize
}

// Alloc reserves size bytes (rounded up to whole pages) in node's slice of
// the iso-address space and returns the range. The same range is implicitly
// reserved on every other node: no other node's allocations can ever fall in
// this node's slice.
func (a *Allocator) Alloc(node, size int) (Range, error) {
	if node < 0 || node >= a.nodes {
		return Range{}, fmt.Errorf("isomalloc: node %d out of range [0,%d)", node, a.nodes)
	}
	if size <= 0 {
		return Range{}, fmt.Errorf("isomalloc: invalid allocation size %d", size)
	}
	size = a.roundUp(size)
	// First-fit from the free list, to exercise reuse.
	fl := a.freed[node]
	for i, r := range fl {
		if r.Size >= size {
			a.freed[node] = append(fl[:i], fl[i+1:]...)
			got := Range{Base: r.Base, Size: size, Node: node}
			if r.Size > size {
				rest := &Range{Base: r.Base + Addr(size), Size: r.Size - size, Node: node}
				a.freed[node] = append(a.freed[node], rest)
			}
			a.allocs[got.Base] = &got
			return got, nil
		}
	}

	base := a.next[node]
	end := base + Addr(size)
	if end > a.sliceBase(node)+a.sliceSize {
		return Range{}, ErrOutOfSlice
	}
	a.next[node] = end
	r := Range{Base: base, Size: size, Node: node}
	a.allocs[base] = &r
	return r, nil
}

// Free releases a previously allocated range for reuse on its node.
func (a *Allocator) Free(base Addr) error {
	r, ok := a.allocs[base]
	if !ok {
		return ErrBadFree
	}
	delete(a.allocs, base)
	a.freed[r.Node] = append(a.freed[r.Node], r)
	return nil
}

// Lookup returns the live allocation containing a, if any.
func (a *Allocator) Lookup(addr Addr) (Range, bool) {
	// Allocation count is small in practice; a linear scan keeps the
	// structure simple. (The page table, not this map, is the hot path.)
	for _, r := range a.allocs {
		if r.Contains(addr) {
			return *r, true
		}
	}
	return Range{}, false
}
