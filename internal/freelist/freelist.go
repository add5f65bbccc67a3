// Package freelist provides the one-slice object freelist used by every
// recycling pool in the simulator (network messages, RPC request envelopes,
// event buckets, page frames and page buffers). Centralizing it keeps the
// recycling invariant — popped slots are zeroed so the list never pins dead
// objects — in one place. The simulation kernel is single-threaded (one
// goroutine holds the token at a time), so there is no locking.
package freelist

// List is a LIFO freelist. The zero value is ready to use.
type List[T any] struct {
	free []T
}

// Get pops a recycled object, reporting false when the list is empty (the
// caller then allocates a fresh one). Resetting the object's state is the
// caller's contract: pools that hand out dirty objects document it.
func (l *List[T]) Get() (T, bool) {
	n := len(l.free)
	if n == 0 {
		var zero T
		return zero, false
	}
	v := l.free[n-1]
	var zero T
	l.free[n-1] = zero
	l.free = l.free[:n-1]
	return v, true
}

// Put pushes v for reuse.
func (l *List[T]) Put(v T) {
	l.free = append(l.free, v)
}

// Len reports the number of pooled objects.
func (l *List[T]) Len() int { return len(l.free) }

// Each calls fn on every pooled object, without removing any.
func (l *List[T]) Each(fn func(T)) {
	for _, v := range l.free {
		fn(v)
	}
}
