package memory

import "dsmpm2/internal/freelist"

// BufPool is a freelist of equal-size byte buffers: page frames in flight,
// twins, and wire copies all churn through page-sized allocations on every
// fault, and at simulation scale that churn — not the virtual protocol cost
// — bounds how many faults per wall-clock second the simulator sustains.
// The simulation kernel is single-threaded (one goroutine holds the token
// at a time), so the pool needs no locking.
//
// Get returns a dirty buffer: callers must overwrite it fully before
// exposing the contents (wire copies and twins do — zero-filled frames have
// their own freelist inside Space). Put accepts only buffers of the pool's
// size and silently drops the rest, so a caller handing back a foreign or
// nil slice is harmless.
type BufPool struct {
	size int
	free freelist.List[[]byte]
}

// NewBufPool returns a pool of size-byte buffers.
func NewBufPool(size int) *BufPool {
	if size <= 0 {
		panic("memory: buffer pool size must be positive")
	}
	return &BufPool{size: size}
}

// Get returns a buffer of the pool's size with unspecified contents.
func (p *BufPool) Get() []byte {
	if buf, ok := p.free.Get(); ok {
		return buf
	}
	return make([]byte, p.size)
}

// Put returns buf to the pool. Buffers of the wrong size are dropped.
func (p *BufPool) Put(buf []byte) {
	if len(buf) != p.size {
		return
	}
	p.free.Put(buf)
}

// MakeTwin returns a pooled private copy of the page contents, the pooled
// counterpart of the package-level MakeTwin. data must be pool-sized.
func (p *BufPool) MakeTwin(data []byte) []byte {
	if len(data) != p.size {
		panic("memory: twin source is not pool-sized")
	}
	twin := p.Get()
	copy(twin, data)
	return twin
}
