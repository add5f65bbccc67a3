package sim

// fifo is a head-indexed FIFO ring: dequeue advances head instead of
// re-slicing, and enqueue compacts the live region back to the front once
// the backing array fills, so a queue at steady state recycles one buffer
// instead of leaking capacity through the `q = q[1:]` idiom. Dequeued and
// compacted-over slots are zeroed so the GC can reclaim what they
// referenced. It backs every queue on the kernel's hot paths: event
// buckets, the wait queues of the synchronization primitives, and Chan.
type fifo[T any] struct {
	q    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

func (f *fifo[T]) push(v T) {
	if f.head > 0 && len(f.q) == cap(f.q) {
		var zero T
		n := copy(f.q, f.q[f.head:])
		for i := n; i < len(f.q); i++ {
			f.q[i] = zero
		}
		f.q = f.q[:n]
		f.head = 0
	}
	f.q = append(f.q, v)
}

// peek returns the element pop would; the queue must not be empty.
func (f *fifo[T]) peek() *T { return &f.q[f.head] }

func (f *fifo[T]) pop() T {
	var zero T
	v := f.q[f.head]
	f.q[f.head] = zero
	f.head++
	if f.head == len(f.q) {
		f.q = f.q[:0]
		f.head = 0
	}
	return v
}

// trim gives up an empty queue's buffer if it grew past maxPooledRing.
func (f *fifo[T]) trim() {
	if len(f.q) == 0 && cap(f.q) > maxPooledRing {
		f.q = nil
	}
}

// drain pops every element in FIFO order and hands it to fn.
func (f *fifo[T]) drain(fn func(T)) {
	for f.len() > 0 {
		fn(f.pop())
	}
}

// removeFunc deletes the first element matching pred, preserving FIFO order
// of the rest, and reports whether one was removed. It is O(n) — used only
// on the rare timeout/fault paths, never on the kernel's hot paths.
func (f *fifo[T]) removeFunc(pred func(T) bool) bool {
	for i := f.head; i < len(f.q); i++ {
		if !pred(f.q[i]) {
			continue
		}
		copy(f.q[i:], f.q[i+1:])
		var zero T
		f.q[len(f.q)-1] = zero
		f.q = f.q[:len(f.q)-1]
		if f.head == len(f.q) {
			f.q = f.q[:0]
			f.head = 0
		}
		return true
	}
	return false
}
