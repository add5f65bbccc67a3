package memory

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// Twin/diff machinery for multiple-writer protocols.
//
// hbrc_mw uses the classical twinning technique (Keleher et al.): before the
// first write to a non-home copy the page is duplicated (the twin); at
// release time the current contents are compared against the twin and only
// the modified words — the diff — travel to the home node. The Java
// protocols record diffs on the fly at object-field granularity through the
// put primitive, producing the same DiffEntry representation.

// DiffEntry is one modified byte range within a page.
type DiffEntry struct {
	Off  int
	Data []byte
}

// Diff is the set of modifications made to one page. A computed diff's
// entries share one byte buffer, private to the diff (see Compute).
type Diff struct {
	Page    Page
	Entries []DiffEntry
	buf     []byte
	// Refs is not part of the modifications: a user that shares one diff
	// between several holders counts here the holders beyond the first (the
	// DSM counts the envelopes carrying a diff beside its sender). Reset
	// clears it.
	Refs int
}

// Size returns the number of payload bytes the diff occupies on the wire
// (entry headers are counted at 8 bytes apiece, matching the real encoding).
func (d *Diff) Size() int {
	n := 8 // page header
	for _, e := range d.Entries {
		n += 8 + len(e.Data)
	}
	return n
}

// Empty reports whether the diff carries no modifications.
func (d *Diff) Empty() bool { return len(d.Entries) == 0 }

// MakeTwin returns a private copy of the page contents.
func MakeTwin(data []byte) []byte {
	twin := make([]byte, len(data))
	copy(twin, data)
	return twin
}

// firstDiff returns the first index at or after i where twin and cur differ,
// or len(cur) when the rest is clean. Differences are found a word at a time:
// the XOR of two little-endian words is zero iff all eight bytes match, and
// its lowest set bit lies in the first byte that does not. Past wordScan clean
// words, a clean tail — the rest of most pages a release diffs — is settled
// by one vectorised compare (bytes.Equal) instead; a dense or sparse page,
// whose next difference is nearer, does not pay for the call.
func firstDiff(twin, cur []byte, i int) int {
	// Hoisted bounds checks: equal lengths and 0 <= i <= len(cur) established
	// here keep per-load checks out of the word loops.
	twin = twin[:len(cur)]
	_ = cur[i:]
	for stop := min(len(cur), i+8*wordScan); i+8 <= stop; i += 8 {
		if x := binary.LittleEndian.Uint64(twin[i:i+8]) ^ binary.LittleEndian.Uint64(cur[i:i+8]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	if bytes.Equal(twin[i:], cur[i:]) {
		return len(cur)
	}
	for ; i+8 <= len(cur); i += 8 {
		if x := binary.LittleEndian.Uint64(twin[i:i+8]) ^ binary.LittleEndian.Uint64(cur[i:i+8]); x != 0 {
			return i + bits.TrailingZeros64(x)/8
		}
	}
	for i < len(cur) && twin[i] == cur[i] {
		i++
	}
	return i
}

// wordScan is how many clean words firstDiff tests one by one before it
// compares the rest of the page at once: a clean stretch longer than a
// 64-byte cache line is most likely the page's clean tail.
const wordScan = 8

// dirtyRange delimits the modified range that begins at the modified byte
// start: adjacent modified bytes coalesce, with runs of up to gap unmodified
// bytes absorbed to reduce entry overhead. It returns the range's last byte
// and the first modified byte beyond it (len(cur) when there is none), which
// is where the next range begins.
func dirtyRange(twin, cur []byte, start, gap int) (last, next int) {
	last = start
	for i := start + 1; ; {
		if i < len(cur) && twin[i] != cur[i] {
			last = i
			i++
			continue
		}
		// Look ahead: absorb the clean run if it is short.
		next = firstDiff(twin, cur, i)
		if next == len(cur) || next-last-1 > gap {
			return last, next
		}
		last = next
		i = next + 1
	}
}

// Compute refills d with the modified ranges of cur against twin (gap 0
// yields exact diffs; the DSM layer uses a small gap like 8 to mimic
// word-granularity diffing). It scans the page once, appending each range's
// bytes to a buffer that stays with d, and reuses d's entry list, so a
// recycled diff costs no allocation once its buffers have grown to the
// page's modifications.
func (d *Diff) Compute(pg Page, twin, cur []byte, gap int) {
	if len(twin) != len(cur) {
		panic("memory: twin/page length mismatch")
	}
	d.Reset()
	d.Page = pg
	for start := firstDiff(twin, cur, 0); start < len(cur); {
		last, next := dirtyRange(twin, cur, start, gap)
		d.buf = append(d.buf, cur[start:last+1]...)
		// Data holds the range's length for now: the buffer may still move.
		d.Entries = append(d.Entries, DiffEntry{Off: start, Data: cur[start : last+1]})
		start = next
	}
	from := 0
	for i := range d.Entries {
		to := from + len(d.Entries[i].Data)
		d.Entries[i].Data = d.buf[from:to:to]
		from = to
	}
}

// ComputeDiff returns a fresh diff of cur against twin (see Compute).
func ComputeDiff(pg Page, twin, cur []byte, gap int) *Diff {
	d := new(Diff)
	d.Compute(pg, twin, cur, gap)
	return d
}

// Reset empties d for its next Compute, keeping the entry list and the
// byte buffer it grew.
func (d *Diff) Reset() {
	clear(d.Entries)
	*d = Diff{Entries: d.Entries[:0], buf: d.buf[:0]}
}

// ApplyDiff patches data with the diff's modifications.
func ApplyDiff(data []byte, d *Diff) {
	for _, e := range d.Entries {
		copy(data[e.Off:], e.Data)
	}
}

// MergeRecorded appends a write of buf at offset off to d, coalescing with
// the previous entry when contiguous. This is the on-the-fly diff recording
// path used by the Java protocols' put primitive.
func (d *Diff) MergeRecorded(off int, buf []byte) {
	if n := len(d.Entries); n > 0 {
		last := &d.Entries[n-1]
		if last.Off+len(last.Data) == off {
			last.Data = append(last.Data, buf...)
			return
		}
		// Overlapping rewrite of the same range: patch in place.
		if off >= last.Off && off+len(buf) <= last.Off+len(last.Data) {
			copy(last.Data[off-last.Off:], buf)
			return
		}
	}
	d.Entries = append(d.Entries, DiffEntry{Off: off, Data: append([]byte(nil), buf...)})
}
