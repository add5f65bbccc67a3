package isomalloc

// Test-only methods: what the tests read or drive that no non-test code does.

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

// End returns the first address past the range.
func (r Range) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the range.
func (r Range) Contains(a Addr) bool { return a >= r.Base && a < r.End() }
