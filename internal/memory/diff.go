package memory

import (
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

// Diff is the set of modifications made to one page.
type Diff struct {
	Page    Page
	Entries []DiffEntry
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
// or len(cur) when the rest is clean. Clean stretches — most of a page under
// most workloads — are skipped a word at a time: the XOR of two little-endian
// words is zero iff all eight bytes match, and its lowest set bit lies in the
// first byte that does not.
func firstDiff(twin, cur []byte, i int) int {
	// Hoisted bounds checks: equal lengths and 0 <= i <= len(cur) established
	// here keep per-load checks out of the word loop.
	twin = twin[:len(cur)]
	_ = cur[i:]
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

// dirtyRange delimits the modified range that begins at the modified byte
// start: adjacent modified bytes coalesce, with runs of up to gap unmodified
// bytes absorbed to reduce entry overhead. It returns the range's last byte
// and the first modified byte beyond it (len(cur) when there is none), which
// is where the next range begins. Both ComputeDiff passes use this one
// scanner, so they segment the page identically by construction.
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

// ComputeDiff compares cur against twin and returns the modified ranges
// (gap 0 yields exact diffs; the DSM layer uses a small gap like 8 to mimic
// word-granularity diffing). It scans twice: the first pass sizes the diff,
// the second fills exactly one entries slice and one shared backing buffer,
// so a diff costs three allocations regardless of how fragmented the page's
// modifications are.
func ComputeDiff(pg Page, twin, cur []byte, gap int) *Diff {
	if len(twin) != len(cur) {
		panic("memory: twin/page length mismatch")
	}
	first := firstDiff(twin, cur, 0)
	nEntries, nBytes := 0, 0
	for start := first; start < len(cur); {
		last, next := dirtyRange(twin, cur, start, gap)
		nEntries++
		nBytes += last - start + 1
		start = next
	}
	d := &Diff{Page: pg}
	if nEntries == 0 {
		return d
	}
	d.Entries = make([]DiffEntry, 0, nEntries)
	backing := make([]byte, 0, nBytes)
	for start := first; start < len(cur); {
		last, next := dirtyRange(twin, cur, start, gap)
		from := len(backing)
		backing = append(backing, cur[start:last+1]...)
		d.Entries = append(d.Entries, DiffEntry{Off: start, Data: backing[from:len(backing):len(backing)]})
		start = next
	}
	return d
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
