package core

import "slices"

// Test-only methods: what the tests read or drive that no non-test code does.

// Len reports the number of stored records.
func (l *TimingLog) Len() int { return len(l.recs) }

// Clone returns an independent copy.
func (s NodeSet) Clone() NodeSet {
	s.more = slices.Clone(s.more)
	return s
}

// Len reports the number of registered protocols.
func (r *Registry) Len() int { return len(r.names) }
