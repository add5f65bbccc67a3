package sim

// Test-only methods: what the tests read or drive that no non-test code does.

// ID returns the proc's unique id (assigned in spawn order).
func (p *Proc) ID() int { return int(p.id) }

// Yield gives other same-time events a chance to run before p continues.
func (p *Proc) Yield() { p.Advance(0) }
