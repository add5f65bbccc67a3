package isomalloc

import "sort"

// OwnerSlice returns which node's slice addr falls in, or -1 for the static
// segment below the first slice.
func (a *Allocator) OwnerSlice(addr Addr) int {
	if addr < a.sliceBase(0) {
		return -1
	}
	n := int(addr/a.sliceSize) - 1
	if n >= a.nodes {
		return -1
	}
	return n
}

// Live returns all live allocations sorted by base address.
func (a *Allocator) Live() []Range {
	out := make([]Range, 0, len(a.allocs))
	for _, r := range a.allocs {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}
