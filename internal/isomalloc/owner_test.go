package isomalloc

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
