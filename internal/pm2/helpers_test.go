package pm2

// Test-only methods: what the tests read or drive that no non-test code does.

// Stop halts the balancer after its current sampling sleep.
func (b *Balancer) Stop() { b.stopped = true }

// Done reports whether the thread's function has returned.
func (t *Thread) Done() bool { return t.done }

// Yield lets other runnable threads at the same virtual time proceed. Yield
// is a safe point for preemptive migration.
func (t *Thread) Yield() {
	t.checkPreempt()
	t.proc.Advance(0)
}

// Runtime returns the machine the thread runs on.
func (t *Thread) Runtime() *Runtime { return t.rt }

// ID returns the thread's machine-wide id.
func (t *Thread) ID() int { return t.id }

// Dead reports whether the node is currently crashed.
func (n *Node) Dead() bool { return n.rt.net.Dead(n.ID) }

// Results holds c's results in element order, from its reply until Release.
func (c *VecCall) Results() []interface{} { return c.results }

// service returns the node's registered service called name.
func (n *Node) service(name string) *service { return n.svcs[n.rt.ServiceID(name)] }
