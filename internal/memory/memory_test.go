package memory

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"dsmpm2/internal/isomalloc"
)

// Pages returns, in ascending order, the pages for which this node currently
// holds a frame.
func (s *Space) Pages() []Page {
	var out []Page
	for t, leaf := range s.top {
		for i, f := range leaf {
			if f != nil {
				out = append(out, Page(t<<leafBits|i))
			}
		}
	}
	return out
}

func TestAccessOrdering(t *testing.T) {
	if NoAccess.Allows(false) || NoAccess.Allows(true) {
		t.Error("NoAccess allows something")
	}
	if !ReadOnly.Allows(false) || ReadOnly.Allows(true) {
		t.Error("ReadOnly rights wrong")
	}
	if !ReadWrite.Allows(false) || !ReadWrite.Allows(true) {
		t.Error("ReadWrite rights wrong")
	}
}

func TestAccessString(t *testing.T) {
	for a, want := range map[Access]string{NoAccess: "---", ReadOnly: "r--", ReadWrite: "rw-"} {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestReadFaultOnMissingPage(t *testing.T) {
	s := NewSpace(4096)
	var buf [4]byte
	err := s.Read(100, buf[:])
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("read of unmapped page returned %v, want *Fault", err)
	}
	if f.Write || f.Page != 0 || f.Addr != 100 {
		t.Fatalf("fault = %+v", f)
	}
}

func TestWriteFaultOnReadOnly(t *testing.T) {
	s := NewSpace(4096)
	s.SetAccess(0, ReadOnly)
	var buf [4]byte
	if err := s.Read(0, buf[:]); err != nil {
		t.Fatalf("read on r-- page faulted: %v", err)
	}
	err := s.Write(0, buf[:])
	var f *Fault
	if !errors.As(err, &f) || !f.Write {
		t.Fatalf("write on r-- page returned %v, want write *Fault", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewSpace(4096)
	s.SetAccess(1, ReadWrite)
	base := s.Base(1)
	if err := s.WriteUint32(base+12, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadUint32(base + 12)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("round trip = %#x, %v", v, err)
	}
	if err := s.WriteUint64(base+40, 1<<60); err != nil {
		t.Fatal(err)
	}
	v64, err := s.ReadUint64(base + 40)
	if err != nil || v64 != 1<<60 {
		t.Fatalf("u64 round trip = %#x, %v", v64, err)
	}
}

func TestStraddleRejected(t *testing.T) {
	s := NewSpace(4096)
	s.SetAccess(0, ReadWrite)
	s.SetAccess(1, ReadWrite)
	var buf [8]byte
	if err := s.Write(4092, buf[:]); err == nil {
		t.Fatal("page-straddling access succeeded")
	}
}

func TestZeroLengthRejected(t *testing.T) {
	s := NewSpace(4096)
	s.SetAccess(0, ReadWrite)
	if err := s.Read(0, nil); err == nil {
		t.Fatal("zero-length read succeeded")
	}
}

func TestDropRevokesAccess(t *testing.T) {
	s := NewSpace(4096)
	s.SetAccess(0, ReadWrite)
	s.Drop(0)
	if s.AccessOf(0) != NoAccess {
		t.Fatal("dropped page still accessible")
	}
	if s.Frame(0) != nil {
		t.Fatal("dropped page still has a frame")
	}
}

func TestEnsureZeroed(t *testing.T) {
	s := NewSpace(4096)
	f := s.Ensure(7)
	for _, b := range f.Data {
		if b != 0 {
			t.Fatal("fresh frame not zeroed")
		}
	}
	if f.Access != NoAccess {
		t.Fatal("fresh frame not NoAccess")
	}
	if s.Ensure(7) != f {
		t.Fatal("Ensure created a duplicate frame")
	}
}

func TestPageOfBase(t *testing.T) {
	s := NewSpace(4096)
	if s.PageOf(4095) != 0 || s.PageOf(4096) != 1 {
		t.Fatal("PageOf boundary wrong")
	}
	if s.Base(3) != 3*4096 {
		t.Fatal("Base wrong")
	}
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two page size accepted")
		}
	}()
	NewSpace(1000)
}

func TestFaultErrorMessage(t *testing.T) {
	f := &Fault{Addr: 0x2000, Page: 2, Write: true}
	if f.Error() == "" || (&Fault{}).Error() == "" {
		t.Fatal("empty fault message")
	}
}

func TestDiffRoundTripExact(t *testing.T) {
	orig := make([]byte, 256)
	cur := make([]byte, 256)
	for i := range orig {
		orig[i] = byte(i)
		cur[i] = byte(i)
	}
	twin := MakeTwin(orig)
	cur[10] = 99
	cur[11] = 98
	cur[200] = 1
	d := ComputeDiff(3, twin, cur, 0)
	if d.Page != 3 || len(d.Entries) != 2 {
		t.Fatalf("diff = %+v", d)
	}
	ApplyDiff(orig, d)
	if !bytes.Equal(orig, cur) {
		t.Fatal("apply(diff) did not reproduce the page")
	}
}

func TestDiffGapCoalescing(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0] = 1
	cur[4] = 1 // 3 clean bytes between
	exact := ComputeDiff(0, twin, cur, 0)
	coarse := ComputeDiff(0, twin, cur, 8)
	if len(exact.Entries) != 2 {
		t.Fatalf("exact diff entries = %d, want 2", len(exact.Entries))
	}
	if len(coarse.Entries) != 1 {
		t.Fatalf("gap-8 diff entries = %d, want 1", len(coarse.Entries))
	}
	// Both must still reproduce the page.
	for _, d := range []*Diff{exact, coarse} {
		page := make([]byte, 64)
		ApplyDiff(page, d)
		if !bytes.Equal(page, cur) {
			t.Fatal("diff does not reproduce page")
		}
	}
}

func TestDiffEmpty(t *testing.T) {
	twin := make([]byte, 32)
	cur := make([]byte, 32)
	d := ComputeDiff(0, twin, cur, 4)
	if !d.Empty() {
		t.Fatal("diff of identical pages not empty")
	}
	if d.Size() != 8 {
		t.Fatalf("empty diff size = %d, want header only", d.Size())
	}
}

func TestDiffSize(t *testing.T) {
	d := &Diff{Entries: []DiffEntry{{Off: 0, Data: make([]byte, 10)}}}
	if d.Size() != 8+8+10 {
		t.Fatalf("size = %d", d.Size())
	}
}

func TestMergeRecordedCoalesces(t *testing.T) {
	var d Diff
	d.MergeRecorded(0, []byte{1, 2})
	d.MergeRecorded(2, []byte{3, 4}) // contiguous: extends
	if len(d.Entries) != 1 || len(d.Entries[0].Data) != 4 {
		t.Fatalf("contiguous merge produced %+v", d.Entries)
	}
	d.MergeRecorded(1, []byte{9}) // overlapping rewrite: patches
	if len(d.Entries) != 1 || d.Entries[0].Data[1] != 9 {
		t.Fatalf("overlap patch produced %+v", d.Entries)
	}
	d.MergeRecorded(100, []byte{5}) // disjoint: new entry
	if len(d.Entries) != 2 {
		t.Fatalf("disjoint write produced %+v", d.Entries)
	}
}

// Property: for random modifications and any gap, applying the diff to the
// twin reproduces the current page exactly.
func TestDiffIdentityProperty(t *testing.T) {
	f := func(seed int64, gap uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, 512)
		rng.Read(twin)
		cur := MakeTwin(twin)
		nmods := rng.Intn(50)
		for i := 0; i < nmods; i++ {
			cur[rng.Intn(len(cur))] = byte(rng.Int())
		}
		d := ComputeDiff(0, twin, cur, int(gap%16))
		patched := MakeTwin(twin)
		ApplyDiff(patched, d)
		return bytes.Equal(patched, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: diffs never report more payload than the page size and entries
// are sorted, disjoint and in range.
func TestDiffWellFormedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, 256)
		cur := make([]byte, 256)
		rng.Read(twin)
		copy(cur, twin)
		for i := 0; i < rng.Intn(100); i++ {
			cur[rng.Intn(256)] ^= byte(1 + rng.Intn(255))
		}
		d := ComputeDiff(0, twin, cur, 0)
		prevEnd := -1
		total := 0
		for _, e := range d.Entries {
			if e.Off <= prevEnd || e.Off+len(e.Data) > 256 || len(e.Data) == 0 {
				return false
			}
			prevEnd = e.Off + len(e.Data) - 1
			total += len(e.Data)
		}
		return total <= 256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLeafSpansOneSlice ties leafBits to the allocator's geometry: at the
// DSM's 4 KiB page, one second-level table is exactly one isomalloc slice,
// so the top level is indexed by addr >> 30.
func TestLeafSpansOneSlice(t *testing.T) {
	if isomalloc.SliceBytes != 4096<<leafBits {
		t.Fatalf("a leaf spans %d bytes of 4 KiB pages, a slice is %d", 4096<<leafBits, isomalloc.SliceBytes)
	}
}

// TestAccessAtTopOfAddressSpace is the regression case for the straddle
// test: addr+n wraps at the top of the address space, off+n does not.
func TestAccessAtTopOfAddressSpace(t *testing.T) {
	s := NewSpace(4096)
	var buf [8]byte
	top := Addr(math.MaxUint64)

	err := s.Read(top-7, buf[:]) // the last word: in one page, no frame
	var f *Fault
	if !errors.As(err, &f) || f.Page != Page(math.MaxUint64>>12) || f.Addr != top-7 {
		t.Fatalf("last word of the address space: got %v, want a fault on the last page", err)
	}
	err = s.Write(top-3, buf[:]) // runs off the end of the last page
	if err == nil || errors.As(err, &f) || !strings.Contains(err.Error(), "straddles") {
		t.Fatalf("access past the top of the address space: got %v, want a straddle error", err)
	}
	if _, err := s.ReadUint64(top - 3); err == nil || errors.As(err, &f) {
		t.Fatalf("typed access past the top of the address space: got %v, want a straddle error", err)
	}
}

// TestUngrownPagesHaveNoFrame checks that pages beyond what either level of
// the table has grown to behave exactly as "no frame", without growing it.
func TestUngrownPagesHaveNoFrame(t *testing.T) {
	s := NewSpace(4096)
	far := []Page{0, 5, 1 << leafBits, 3<<leafBits + 9, math.MaxUint64 >> 12, math.MaxUint64}
	check := func(when string) {
		t.Helper()
		for _, pg := range far {
			s.Drop(pg)
			if s.Frame(pg) != nil || s.AccessOf(pg) != NoAccess {
				t.Fatalf("%s: page %d has a frame", when, pg)
			}
		}
	}
	check("empty space")
	s.SetAccess(1<<leafBits+2, ReadWrite) // grows the top to 2 slots, leaf 1 to 3
	check("after one frame")
	if got := s.Pages(); len(got) != 1 || got[0] != 1<<leafBits+2 {
		t.Fatalf("Pages() = %v, want just the one frame", got)
	}
	if len(s.top) != 2 || s.top[0] != nil || len(s.top[1]) != 3 {
		t.Fatalf("table grew beyond the touched index: top %d, leaves %d/%d", len(s.top), len(s.top[0]), len(s.top[1]))
	}
}

// TestFrameRecycling checks a dropped frame comes back zeroed and NoAccess.
func TestFrameRecycling(t *testing.T) {
	s := NewSpace(64)
	f := s.Ensure(3)
	f.Access = ReadWrite
	for i := range f.Data {
		f.Data[i] = 0xEE
	}
	s.Drop(3)
	g := s.Ensure(1 << 20)
	if g != f {
		t.Fatal("dropped frame was not recycled")
	}
	if g.Access != NoAccess || !bytes.Equal(g.Data, make([]byte, 64)) {
		t.Fatalf("recycled frame not reset: access %v data %x", g.Access, g.Data)
	}
}

// refSpace is the obvious model of a Space — a map from page to frame — that
// the page table replaced; the property test below drives both.
type refSpace struct {
	pageSize int
	frames   map[Page]*Frame
}

func (r *refSpace) ensure(pg Page) *Frame {
	f := r.frames[pg]
	if f == nil {
		f = &Frame{Data: make([]byte, r.pageSize)}
		r.frames[pg] = f
	}
	return f
}

// access is the model's check + copy: it returns the kind of outcome
// ("ok", "fault", "invalid") and, for a fault, the page.
func (r *refSpace) access(addr Addr, buf []byte, write bool) (string, Page) {
	n := uint64(len(buf))
	off := uint64(addr) % uint64(r.pageSize)
	if n == 0 || off+n > uint64(r.pageSize) {
		return "invalid", 0
	}
	pg := Page(uint64(addr) / uint64(r.pageSize))
	f := r.frames[pg]
	if f == nil || !f.Access.Allows(write) {
		return "fault", pg
	}
	if write {
		copy(f.Data[off:], buf)
	} else {
		copy(buf, f.Data[off:])
	}
	return "ok", pg
}

// outcome classifies a Space error the way refSpace.access reports.
func outcome(err error) (string, Page, bool) {
	var f *Fault
	switch {
	case err == nil:
		return "ok", 0, false
	case errors.As(err, &f):
		return "fault", f.Page, f.Write
	default:
		return "invalid", 0, false
	}
}

// TestSpaceMatchesMapModel drives random operation sequences against the
// map model, over the pages a DSM node's table actually sees: the static
// segment, and the first and last pages of several node slices (so both
// sides of slice boundaries, and leaves grown to their last index).
func TestSpaceMatchesMapModel(t *testing.T) {
	for _, pageSize := range []int{8, 64, 4096} {
		t.Run(fmt.Sprint(pageSize), func(t *testing.T) {
			slicePages := Page(isomalloc.SliceBytes / pageSize)
			pages := []Page{1}
			for _, slice := range []Page{1, 2, 3, 17} {
				first := slice * slicePages
				pages = append(pages, first, first+1, first+slicePages-1)
			}
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				s := NewSpace(pageSize)
				ref := &refSpace{pageSize: pageSize, frames: map[Page]*Frame{}}
				for step := 0; step < 3000; step++ {
					pg := pages[rng.Intn(len(pages))]
					off := rng.Intn(pageSize)
					addr := s.Base(pg) + Addr(off)
					at := fmt.Sprintf("seed %d step %d page %d off %d", seed, step, pg, off)
					switch op := rng.Intn(8); op {
					case 0:
						f := s.Ensure(pg)
						if r := ref.ensure(pg); f.Access != r.Access || !bytes.Equal(f.Data, r.Data) {
							t.Fatalf("%s: Ensure frame = %v %x, model %v %x", at, f.Access, f.Data, r.Access, r.Data)
						}
					case 1:
						s.Drop(pg)
						delete(ref.frames, pg)
					case 2:
						a := Access(rng.Intn(3))
						s.SetAccess(pg, a)
						ref.ensure(pg).Access = a
					case 3, 4: // Read / Write of 0..16 bytes, straddles included
						write := op == 4
						got, want := make([]byte, rng.Intn(17)), []byte(nil)
						rng.Read(got)
						want = append(want, got...)
						var err error
						if write {
							err = s.Write(addr, got)
						} else {
							err = s.Read(addr, got)
						}
						kind, fpg, fwrite := outcome(err)
						wantKind, wantPg := ref.access(addr, want, write)
						if kind != wantKind || (kind == "fault" && (fpg != wantPg || fwrite != write)) || !bytes.Equal(got, want) {
							t.Fatalf("%s: write=%v len %d: got %s (%v) %x, model %s %x", at, write, len(got), kind, err, got, wantKind, want)
						}
					case 5:
						v, err := s.ReadUint64(addr)
						var want [8]byte
						kind, _, _ := outcome(err)
						wantKind, _ := ref.access(addr, want[:], false)
						if kind != wantKind || (kind == "ok" && v != binary.LittleEndian.Uint64(want[:])) {
							t.Fatalf("%s: ReadUint64 = %#x, %v; model %s %x", at, v, err, wantKind, want)
						}
					case 6:
						v := rng.Uint32()
						var want [4]byte
						binary.LittleEndian.PutUint32(want[:], v)
						kind, _, _ := outcome(s.WriteUint32(addr, v))
						if wantKind, _ := ref.access(addr, want[:], true); kind != wantKind {
							t.Fatalf("%s: WriteUint32 outcome %s, model %s", at, kind, wantKind)
						}
					case 7:
						f, r := s.Frame(pg), ref.frames[pg]
						if (f == nil) != (r == nil) || (f != nil && (f.Access != r.Access || !bytes.Equal(f.Data, r.Data))) {
							t.Fatalf("%s: Frame = %+v, model %+v", at, f, r)
						}
						if r == nil && s.AccessOf(pg) != NoAccess || r != nil && s.AccessOf(pg) != r.Access {
							t.Fatalf("%s: AccessOf = %v, model %+v", at, s.AccessOf(pg), r)
						}
					}
					if step%100 != 99 {
						continue // Pages() walks every grown leaf
					}
					want := make([]Page, 0, len(ref.frames))
					for pg := range ref.frames {
						want = append(want, pg)
					}
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					if got := s.Pages(); !slices.Equal(got, want) {
						t.Fatalf("%s: Pages() = %v, model (ascending) %v", at, got, want)
					}
				}
			}
		})
	}
}

// TestSpaceHitDoesNotAllocate pins the present-page word access at zero
// allocations: no staging buffer, no error value.
func TestSpaceHitDoesNotAllocate(t *testing.T) {
	s := NewSpace(4096)
	pg := s.PageOf(2 << 30)
	s.SetAccess(pg, ReadWrite)
	addr := s.Base(pg) + 24
	if n := testing.AllocsPerRun(100, func() {
		v, err := s.ReadUint64(addr)
		if err != nil || s.WriteUint64(addr, v+1) != nil {
			t.Fatal("hit faulted")
		}
	}); n != 0 {
		t.Fatalf("present-page ReadUint64+WriteUint64 allocates %v times", n)
	}
}

// TestDiffMatchesByteWiseReference holds the word-wise scanner to the
// byte-wise reference on full-size pages: clean, sparse, dense, and with
// modifications hugging both ends of the page.
func TestDiffMatchesByteWiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for round := 0; round < 300; round++ {
		twin := make([]byte, 4096)
		rng.Read(twin)
		cur := MakeTwin(twin)
		switch round % 4 {
		case 1: // sparse single bytes
			for i := rng.Intn(40); i > 0; i-- {
				cur[rng.Intn(len(cur))] ^= byte(1 + rng.Intn(255))
			}
		case 2: // dense: most words rewritten, high bytes often equal
			for w := 0; w < len(cur)/8; w++ {
				if rng.Intn(8) > 0 {
					rng.Read(cur[8*w : 8*w+1+rng.Intn(8)])
				}
			}
		case 3: // both ends
			cur[0] ^= 1
			cur[len(cur)-1] ^= 1
			cur[rng.Intn(len(cur))] ^= 0x80
		}
		for _, gap := range fuzzGaps {
			if msg := sameDiff(ComputeDiff(9, twin, cur, gap), refComputeDiff(9, twin, cur, gap)); msg != "" {
				t.Fatalf("round %d gap %d: %s", round, gap, msg)
			}
		}
	}
}

// FuzzSpaceHit holds the hits to Check differentially. A fuzzed sequence of
// Ensure, SetAccess, Drop and accesses runs against a Space and the map
// model, at offsets that end pages (so straddles), on pages past the grown
// top level, past a grown leaf, dropped, read-only and read-write. Every
// Load*/Store* hit must succeed exactly when Check accepts — and Check
// exactly when the model does — with the model's bytes moved on a hit.
// A refusal touches nothing, and the error-returning accessor reports the
// model's Fault, field for field.
func FuzzSpaceHit(f *testing.F) {
	f.Add(uint8(2), []byte{0, 2, 0, 12, 2, 0, 5, 2, 0, 5, 2, 3, 5, 2, 5, 6, 2, 6, 25, 2, 6, 33, 2, 2, 7, 2, 2, 168, 2, 3})
	f.Add(uint8(0), []byte{22, 0, 0, 5, 0, 0, 3, 0, 4, 6, 0, 5, 58, 0, 2, 1, 0, 0, 5, 0, 0, 8, 1, 2})
	f.Add(uint8(1), []byte{12, 3, 0, 5, 3, 0, 5, 4, 0, 5, 5, 0, 4, 3, 7, 98, 3, 3, 18, 3, 4, 2, 1, 0})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		pageSize := []int{8, 64, 4096}[int(size)%3]
		slicePages := Page(isomalloc.SliceBytes / pageSize)
		// Frames go only on the first four (Ensure grows the table to the
		// page), so the last two always lie past the grown top level.
		pages := []Page{1, slicePages, slicePages + 1, slicePages + 300, 17 * slicePages, Page(math.MaxUint64 / uint64(pageSize))}
		offs := []int{0, 1, pageSize / 2, pageSize - 1, pageSize - 3, pageSize - 4, pageSize - 7, pageSize - 8}
		s := NewSpace(pageSize)
		ref := &refSpace{pageSize: pageSize, frames: map[Page]*Frame{}}
		for step := 0; len(ops) >= 3; step, ops = step+1, ops[3:] {
			op, pg, off := ops[0], pages[int(ops[1])%len(pages)], offs[int(ops[2])%len(offs)]
			addr := s.Base(pg) + Addr(off)
			at := fmt.Sprintf("page size %d step %d page %d off %d op %d", pageSize, step, pg, off, op)
			// run fills an n-byte buffer with this step's bytes and accesses
			// it three ways: the model, the hit, and the error-returning
			// accessor (Check's caller on a refusal).
			run := func(n int, write bool, hit func([]byte) bool, checked func([]byte) error) {
				buf := make([]byte, n)
				for i := range buf {
					buf[i] = byte(step + i + 1)
				}
				want := slices.Clone(buf)
				kind, fpg := ref.access(addr, want, write)
				if err := s.Check(addr, n, write); (err == nil) != (kind == "ok") {
					t.Fatalf("%s: Check = %v, model %s", at, err, kind)
				}
				got := slices.Clone(buf)
				if ok := hit(got); ok != (kind == "ok") || !bytes.Equal(got, want) {
					t.Fatalf("%s: hit = %v %x, model %s %x", at, ok, got, kind, want)
				}
				got = slices.Clone(buf)
				err := checked(got)
				var flt *Fault
				if gotKind, _, _ := outcome(err); gotKind != kind || !bytes.Equal(got, want) ||
					errors.As(err, &flt) && *flt != (Fault{Addr: addr, Page: fpg, Write: write}) {
					t.Fatalf("%s: checked access = %v %x, model %s on page %d %x", at, err, got, kind, fpg, want)
				}
			}
			switch op % 9 {
			case 0:
				if pg < 2*slicePages {
					s.Ensure(pg)
					ref.ensure(pg)
				}
			case 1:
				s.Drop(pg)
				delete(ref.frames, pg)
			case 2:
				if a := Access(op / 9 % 3); pg < 2*slicePages {
					s.SetAccess(pg, a)
					ref.ensure(pg).Access = a
				}
			case 3:
				run(4, false, func(b []byte) bool {
					v, ok := s.LoadUint32(addr)
					if ok {
						binary.LittleEndian.PutUint32(b, v)
					}
					return ok
				}, func(b []byte) error {
					v, err := s.ReadUint32(addr)
					if err == nil {
						binary.LittleEndian.PutUint32(b, v)
					}
					return err
				})
			case 4:
				run(4, true, func(b []byte) bool { return s.StoreUint32(addr, binary.LittleEndian.Uint32(b)) },
					func(b []byte) error { return s.WriteUint32(addr, binary.LittleEndian.Uint32(b)) })
			case 5:
				run(8, false, func(b []byte) bool {
					v, ok := s.LoadUint64(addr)
					if ok {
						binary.LittleEndian.PutUint64(b, v)
					}
					return ok
				}, func(b []byte) error {
					v, err := s.ReadUint64(addr)
					if err == nil {
						binary.LittleEndian.PutUint64(b, v)
					}
					return err
				})
			case 6:
				run(8, true, func(b []byte) bool { return s.StoreUint64(addr, binary.LittleEndian.Uint64(b)) },
					func(b []byte) error { return s.WriteUint64(addr, binary.LittleEndian.Uint64(b)) })
			case 7, 8: // Load / Store of 0..16 bytes
				write := op%9 == 8
				run(int(op/9%17), write, func(b []byte) bool {
					if write {
						return s.Store(addr, b)
					}
					return s.Load(addr, b)
				}, func(b []byte) error {
					if write {
						return s.Write(addr, b)
					}
					return s.Read(addr, b)
				})
			}
			if f, r := s.Frame(pg), ref.frames[pg]; (f == nil) != (r == nil) || f != nil && (f.Access != r.Access || !bytes.Equal(f.Data, r.Data)) {
				t.Fatalf("%s: frame %+v, model %+v", at, f, r)
			}
		}
	})
}
