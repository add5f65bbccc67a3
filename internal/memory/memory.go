// Package memory implements the paged software memory that stands in for the
// hardware MMU of the paper's clusters.
//
// The real DSM-PM2 detects shared accesses with mprotect and SIGSEGV. That
// mechanism is unavailable under the Go runtime (the GC and the scheduler
// cannot tolerate protected heap pages), so accesses instead go through
// explicit load/store primitives — the same detect → handle → retry cycle,
// with the detection cost charged by the DSM layer at the paper's 11 us.
//
// Under mprotect a permitted access costs the application nothing, so a hit
// (Load, Store and their word forms) resolves an address to its Frame with
// three shifts and two bounds-checked loads (see Space), reports only
// success and inlines into its caller; a span hit (LoadSpan, StoreSpan) pays
// that check once per page of a longer access. Check, reached once a hit has
// failed, builds the *Fault that stands for the SIGSEGV.
// The twin/diff machinery multiple-writer protocols need lives here too
// (diff.go: a diff is computed in one scan of the page into a record whose
// buffers are reused when it is refilled), with the page-buffer pool (pool.go).
package memory

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"dsmpm2/internal/freelist"
	"dsmpm2/internal/isomalloc"
)

// Addr aliases the iso-address space address type.
type Addr = isomalloc.Addr

// Page identifies a virtual page: Addr / PageSize.
type Page uint64

// Access is the local access right a node holds on a page, mirroring the
// rights the real system sets with mprotect.
type Access uint8

// Access rights, in increasing order of privilege.
const (
	NoAccess Access = iota
	ReadOnly
	ReadWrite
)

// String returns the conventional protection-bit spelling of an access right.
func (a Access) String() string {
	switch a {
	case NoAccess:
		return "---"
	case ReadOnly:
		return "r--"
	case ReadWrite:
		return "rw-"
	default:
		return fmt.Sprintf("Access(%d)", uint8(a))
	}
}

// Allows reports whether right a permits the given kind of access.
func (a Access) Allows(write bool) bool {
	if write {
		return a == ReadWrite
	}
	return a >= ReadOnly
}

// Fault describes an access that the current rights do not permit. It plays
// the role of the SIGSEGV the real system catches: the DSM layer inspects the
// faulting address and kind and invokes the protocol's fault handler.
type Fault struct {
	Addr  Addr
	Page  Page
	Write bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	return fmt.Sprintf("memory: %s fault at %#x (page %d)", kind, f.Addr, f.Page)
}

// Frame is one node's local copy of a page, together with the access right
// currently set on it.
type Frame struct {
	Data   []byte
	Access Access
}

// Space is one node's view of the shared address space: the set of page
// frames it currently holds. A page with no frame behaves as NoAccess.
//
// Frames live in a two-level page table indexed by shifts of the page
// number: top[pg>>leafBits][pg&leafMask]. At the DSM's 4 KiB page a leaf
// spans exactly one isomalloc slice, so the top level is indexed by
// addr>>30 — slot 0 is the static segment, slot n+1 node n's slice — and
// since every allocator hands out a slice from its base upwards, the pages
// a node touches sit at the front of a few leaves. Both levels therefore
// grow (geometrically, by append) only as far as the highest index touched
// and never shrink; nothing is sized to a whole slice up front. Growth is
// proportional to the page number, so Ensure and SetAccess are for pages the
// allocator handed out.
//
// Dropped frames are recycled through a freelist: invalidation-heavy
// protocols drop and refetch pages constantly, and reusing the frame (and
// its page buffer) keeps that cycle allocation-free. Callers must not
// retain a *Frame or its Data across Drop — the sequential simulation makes
// this natural, since protocol code only touches frames inside one critical
// section.
type Space struct {
	pageSize  int
	pageShift uint   // log2(pageSize)
	topShift  uint   // pageShift + leafBits: addr>>topShift indexes top
	offMask   uint64 // pageSize - 1
	top       [][]*Frame
	free      freelist.List[*Frame]
	fault     Fault // what Check returned for the last refused access
}

// leafBits is log2 of the pages one second-level table spans: one isomalloc
// slice of 4 KiB pages (TestLeafSpansOneSlice ties the two constants).
// Smaller page sizes spread a slice over several leaves, which bounds a
// fully grown leaf at 2 MB of pointers whatever the page size.
const (
	leafBits = 18
	leafMask = 1<<leafBits - 1
)

// NewSpace creates an empty address space view with the given page size.
func NewSpace(pageSize int) *Space {
	if pageSize < 8 || pageSize&(pageSize-1) != 0 {
		panic("memory: page size must be a power of two >= 8")
	}
	return &Space{
		pageSize:  pageSize,
		pageShift: uint(bits.TrailingZeros(uint(pageSize))),
		topShift:  uint(bits.TrailingZeros(uint(pageSize))) + leafBits,
		offMask:   uint64(pageSize) - 1,
	}
}

// PageOf returns the page containing addr.
func (s *Space) PageOf(addr Addr) Page { return Page(uint64(addr) >> s.pageShift) }

// Base returns the first address of page pg.
func (s *Space) Base(pg Page) Addr { return Addr(uint64(pg) << s.pageShift) }

// Frame returns the local frame for pg, or nil if the node holds no copy.
// A page beyond what either level has grown to has no frame.
func (s *Space) Frame(pg Page) *Frame {
	if t, i := uint64(pg)>>leafBits, uint64(pg)&leafMask; t < uint64(len(s.top)) && i < uint64(len(s.top[t])) {
		return s.top[t][i]
	}
	return nil
}

// growTo extends s with zero values until index i is valid. append's
// amortized capacity growth makes a run of ascending first touches cost
// O(1) each.
func growTo[T any](s []T, i uint64) []T {
	if i < uint64(len(s)) {
		return s
	}
	return append(s, make([]T, i+1-uint64(len(s)))...)
}

// Ensure returns the frame for pg, creating a zeroed NoAccess frame if the
// node holds none.
func (s *Space) Ensure(pg Page) *Frame {
	if f := s.Frame(pg); f != nil {
		return f
	}
	f, ok := s.free.Get()
	if ok {
		clear(f.Data)
		f.Access = NoAccess
	} else {
		f = &Frame{Data: make([]byte, s.pageSize)}
	}
	t, i := uint64(pg)>>leafBits, uint64(pg)&leafMask
	s.top = growTo(s.top, t)
	s.top[t] = growTo(s.top[t], i)
	s.top[t][i] = f
	return f
}

// Drop discards the local frame for pg (used when a protocol invalidates and
// reclaims a copy). The frame is recycled; see the Space doc comment.
func (s *Space) Drop(pg Page) {
	if f := s.Frame(pg); f != nil {
		s.top[uint64(pg)>>leafBits][uint64(pg)&leafMask] = nil
		s.free.Put(f)
	}
}

// SetAccess sets the access right on pg, creating the frame if needed.
func (s *Space) SetAccess(pg Page, a Access) { s.Ensure(pg).Access = a }

// AccessOf returns the access right the node holds on pg.
func (s *Space) AccessOf(pg Page) Access {
	if f := s.Frame(pg); f != nil {
		return f.Access
	}
	return NoAccess
}

// Check returns nil if an n-byte access at addr is permitted and otherwise
// why not: a *Fault — the Space's own, valid until its next refusal, so a
// refusal allocates nothing — or a program error. An access must not
// straddle a page boundary; the test is on the offset, as addr+n may wrap.
// The hits below perform an access exactly when Check would return nil and
// otherwise touch nothing; each writes out the page-table walk and both
// tests to stay within the compiler's inlining budget.
func (s *Space) Check(addr Addr, n int, write bool) error {
	switch f := s.Frame(s.PageOf(addr)); {
	case n <= 0:
		return fmt.Errorf("memory: invalid access length %d", n)
	case n > s.pageSize-int(uint64(addr)&s.offMask):
		return fmt.Errorf("memory: access [%#x,%#x) straddles a page boundary", addr, addr+Addr(n))
	case f == nil || !f.Access.Allows(write):
		s.fault = Fault{Addr: addr, Page: s.PageOf(addr), Write: write}
		return &s.fault
	}
	return nil
}

// Load copies len(buf) bytes at addr into buf if the node may read them.
func (s *Space) Load(addr Addr, buf []byte) bool {
	if t, i := uint64(addr)>>s.topShift, uint64(addr)>>s.pageShift&leafMask; t < uint64(len(s.top)) && i < uint64(len(s.top[t])) {
		if f, off := s.top[t][i], uint64(addr)&s.offMask; f != nil && f.Access >= ReadOnly && uint64(len(buf))-1 <= s.offMask-off {
			copy(buf, f.Data[off:])
			return true
		}
	}
	return false
}

// Store copies buf to addr if the node may write there.
func (s *Space) Store(addr Addr, buf []byte) bool {
	if t, i := uint64(addr)>>s.topShift, uint64(addr)>>s.pageShift&leafMask; t < uint64(len(s.top)) && i < uint64(len(s.top[t])) {
		if f, off := s.top[t][i], uint64(addr)&s.offMask; f != nil && f.Access == ReadWrite && uint64(len(buf))-1 <= s.offMask-off {
			copy(f.Data[off:], buf)
			return true
		}
	}
	return false
}

// LoadUint32 loads a little-endian uint32 at addr if the node may read it.
func (s *Space) LoadUint32(addr Addr) (uint32, bool) {
	if t, i := uint64(addr)>>s.topShift, uint64(addr)>>s.pageShift&leafMask; t < uint64(len(s.top)) && i < uint64(len(s.top[t])) {
		if f, off := s.top[t][i], uint64(addr)&s.offMask; f != nil && f.Access >= ReadOnly && off <= s.offMask-3 {
			return binary.LittleEndian.Uint32(f.Data[off:]), true
		}
	}
	return 0, false
}

// StoreUint32 stores a little-endian uint32 at addr if the node may write it.
func (s *Space) StoreUint32(addr Addr, v uint32) bool {
	if t, i := uint64(addr)>>s.topShift, uint64(addr)>>s.pageShift&leafMask; t < uint64(len(s.top)) && i < uint64(len(s.top[t])) {
		if f, off := s.top[t][i], uint64(addr)&s.offMask; f != nil && f.Access == ReadWrite && off <= s.offMask-3 {
			binary.LittleEndian.PutUint32(f.Data[off:], v)
			return true
		}
	}
	return false
}

// LoadUint64 loads a little-endian uint64 at addr if the node may read it.
func (s *Space) LoadUint64(addr Addr) (uint64, bool) {
	if t, i := uint64(addr)>>s.topShift, uint64(addr)>>s.pageShift&leafMask; t < uint64(len(s.top)) && i < uint64(len(s.top[t])) {
		if f, off := s.top[t][i], uint64(addr)&s.offMask; f != nil && f.Access >= ReadOnly && off <= s.offMask-7 {
			return binary.LittleEndian.Uint64(f.Data[off:]), true
		}
	}
	return 0, false
}

// StoreUint64 stores a little-endian uint64 at addr if the node may write it.
func (s *Space) StoreUint64(addr Addr, v uint64) bool {
	if t, i := uint64(addr)>>s.topShift, uint64(addr)>>s.pageShift&leafMask; t < uint64(len(s.top)) && i < uint64(len(s.top[t])) {
		if f, off := s.top[t][i], uint64(addr)&s.offMask; f != nil && f.Access == ReadWrite && off <= s.offMask-7 {
			binary.LittleEndian.PutUint64(f.Data[off:], v)
			return true
		}
	}
	return false
}

// LoadSpan is Load for an access of any length: one rights check per page it
// covers, and a refusal touches nothing.
func (s *Space) LoadSpan(addr Addr, buf []byte) bool { return s.span(addr, buf, false) }

// StoreSpan is Store for an access of any length; a refusal changes no byte.
func (s *Space) StoreSpan(addr Addr, buf []byte) bool { return s.span(addr, buf, true) }

// span checks every page of the access before it copies a byte. An empty
// access, or one that wraps the address space, is refused.
func (s *Space) span(addr Addr, buf []byte, write bool) bool {
	last := uint64(addr) + uint64(len(buf)) - 1
	if len(buf) == 0 || last < uint64(addr) {
		return false
	}
	for pg := s.PageOf(addr); pg <= s.PageOf(Addr(last)); pg++ {
		if f := s.Frame(pg); f == nil || !f.Access.Allows(write) {
			return false
		}
	}
	for len(buf) > 0 {
		data, n := s.Frame(s.PageOf(addr)).Data[uint64(addr)&s.offMask:], 0
		if write {
			n = copy(data, buf)
		} else {
			n = copy(buf, data)
		}
		addr, buf = addr+Addr(n), buf[n:]
	}
	return true
}

// refusal is the error-returning accessors' answer: nil after a hit, else Check's.
func (s *Space) refusal(hit bool, addr Addr, n int, write bool) error {
	if hit {
		return nil
	}
	return s.Check(addr, n, write)
}

// Read copies len(buf) bytes starting at addr into buf.
func (s *Space) Read(addr Addr, buf []byte) error {
	return s.refusal(s.Load(addr, buf), addr, len(buf), false)
}

// Write copies buf into memory starting at addr.
func (s *Space) Write(addr Addr, buf []byte) error {
	return s.refusal(s.Store(addr, buf), addr, len(buf), true)
}

// ReadUint64 loads a little-endian uint64 at addr.
func (s *Space) ReadUint64(addr Addr) (uint64, error) {
	v, ok := s.LoadUint64(addr)
	return v, s.refusal(ok, addr, 8, false)
}
