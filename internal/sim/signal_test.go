package sim

// Signal wakes the oldest live waiter, if any; dead waiters are discarded
// so a signal is never consumed by a killed proc.
func (c *Cond) Signal() {
	for c.waiters.len() > 0 {
		if w := c.waiters.pop(); !w.dead {
			w.Unpark()
			return
		}
	}
}
