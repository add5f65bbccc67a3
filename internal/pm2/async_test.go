package pm2

// Async invokes the service named svcName on node dest from the thread's
// node, without waiting for completion or result (see AsyncFrom).
func (t *Thread) Async(dest int, svcName string, arg interface{}, size int) {
	t.rt.AsyncFrom(t.node, dest, t.rt.ServiceID(svcName), arg, size)
}
