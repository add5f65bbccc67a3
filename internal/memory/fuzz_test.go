package memory

// Native Go fuzz target for the twin/diff machinery. Recovery leans on
// diffs being exact: a re-sent diff is applied idempotently at a re-homed
// page, so any encoding corruption — an off-by-one range, a gap-coalescing
// bug, an aliased backing buffer — silently corrupts recovered memory. The
// round-trip property pins it: for any twin, any set of modifications and
// any coalescing gap, ApplyDiff(twin, ComputeDiff(twin, cur)) == cur — also
// when the diff is a recycled one refilled by Compute. The
// word-wise scanner is also held, entry for entry, to the byte-wise one it
// replaced: entry offsets and lengths are what Size() and every wire cost are
// computed from, so a diff that round-trips but segments differently would
// still move published virtual times.

import (
	"bytes"
	"fmt"
	"testing"
)

// mutate applies the fuzzer-chosen modifications to cur: mods is consumed
// as (offset, value) byte pairs.
func mutate(cur []byte, mods []byte) {
	for i := 0; i+1 < len(mods); i += 2 {
		cur[int(mods[i])%len(cur)] = mods[i+1]
	}
}

// refNextDirtyRange is the byte-at-a-time scanner ComputeDiff was first
// written with, kept verbatim as the reference the word-wise one must match.
func refNextDirtyRange(twin, cur []byte, i, gap int) (start, last int, ok bool) {
	for i < len(cur) && twin[i] == cur[i] {
		i++
	}
	if i == len(cur) {
		return 0, 0, false
	}
	start = i
	last = i
	i++
	for i < len(cur) {
		if twin[i] != cur[i] {
			last = i
			i++
			continue
		}
		// Look ahead: absorb short clean runs.
		if i-last <= gap {
			i++
			continue
		}
		break
	}
	return start, last, true
}

// refComputeDiff builds the diff from the reference scanner.
func refComputeDiff(pg Page, twin, cur []byte, gap int) *Diff {
	d := &Diff{Page: pg}
	for i := 0; ; {
		start, last, ok := refNextDirtyRange(twin, cur, i, gap)
		if !ok {
			return d
		}
		d.Entries = append(d.Entries, DiffEntry{Off: start, Data: append([]byte(nil), cur[start:last+1]...)})
		i = last + 1
	}
}

// sameDiff reports the first difference between two diffs, or "".
func sameDiff(got, want *Diff) string {
	if got.Page != want.Page || len(got.Entries) != len(want.Entries) {
		return fmt.Sprintf("page %d with %d entries, want page %d with %d", got.Page, len(got.Entries), want.Page, len(want.Entries))
	}
	for i, e := range got.Entries {
		if w := want.Entries[i]; e.Off != w.Off || !bytes.Equal(e.Data, w.Data) {
			return fmt.Sprintf("entry %d = off %d data %x, want off %d data %x", i, e.Off, e.Data, w.Off, w.Data)
		}
	}
	return ""
}

// fuzzGaps are the coalescing gaps the differential fuzzer draws from: exact
// diffs, the DSM's word gap of 8 and its neighbours, and one wider than any
// clean run a word-wise skip could straddle.
var fuzzGaps = []int{0, 1, 7, 8, 9, 64}

func FuzzDiffRoundTrip(f *testing.F) {
	// Seed corpus: clean page, single-byte change, two distant ranges that
	// must not coalesce at gap 0 but do at gap 8, dense scatter, and
	// boundary-of-page writes.
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4}, []byte{0, 9}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xAA}, 64), []byte{0, 1, 20, 2}, uint8(8))
	f.Add(bytes.Repeat([]byte{0x00}, 64), []byte{0, 1, 2, 2, 4, 3, 63, 9}, uint8(2))
	f.Add(bytes.Repeat([]byte{0xFF}, 32), []byte{31, 0, 0, 0}, uint8(16))
	f.Fuzz(func(t *testing.T, twinSeed, mods []byte, gapSel uint8) {
		const size = 100 // twelve words and a four-byte tail
		gap := fuzzGaps[int(gapSel)%len(fuzzGaps)]
		twin := make([]byte, size)
		copy(twin, twinSeed)
		cur := append([]byte(nil), twin...)
		mutate(cur, mods)

		// The DSM refills pooled diffs, so compute into one that a larger,
		// more fragmented diff left dirty: every other byte of a page twice
		// this size changed, exactly — more entries and more bytes than any
		// diff of this page can have.
		diff := ComputeDiff(3, make([]byte, 2*size), bytes.Repeat([]byte{0, 1}, size), 0)
		diff.Compute(7, twin, cur, gap)
		want := refComputeDiff(7, twin, cur, gap)
		if msg := sameDiff(diff, want); msg != "" {
			t.Fatalf("gap %d: word-wise scan departs from the byte-wise reference: %s\n twin %x\n cur  %x", gap, msg, twin, cur)
		}

		// Round trip: the diff applied to a pristine twin restores cur.
		restored := append([]byte(nil), twin...)
		ApplyDiff(restored, diff)
		if !bytes.Equal(restored, cur) {
			t.Fatalf("round trip lost data:\n twin %x\n cur  %x\n got  %x\n diff %+v",
				twin, cur, restored, diff)
		}

		// Emptiness is exact: a diff is empty iff nothing changed.
		if diff.Empty() != bytes.Equal(twin, cur) {
			t.Fatalf("Empty()=%v but twin==cur is %v", diff.Empty(), bytes.Equal(twin, cur))
		}

		// Entries are in-bounds, ordered, non-overlapping, and the wire
		// size accounts for every byte.
		wantSize := 8
		last := -1
		for _, e := range diff.Entries {
			if e.Off <= last {
				t.Fatalf("entries out of order or overlapping at off %d (prev end %d)", e.Off, last)
			}
			if e.Off < 0 || e.Off+len(e.Data) > size || len(e.Data) == 0 {
				t.Fatalf("entry out of bounds: off=%d len=%d", e.Off, len(e.Data))
			}
			last = e.Off + len(e.Data) - 1
			wantSize += 8 + len(e.Data)
		}
		if diff.Size() != wantSize {
			t.Fatalf("Size() = %d, want %d", diff.Size(), wantSize)
		}

		// Idempotence — what recovery actually relies on when a diff is
		// re-sent to a re-homed page: applying twice changes nothing more.
		ApplyDiff(restored, diff)
		if !bytes.Equal(restored, cur) {
			t.Fatalf("second ApplyDiff changed data")
		}

		// The diff owns its bytes: scribbling over the page leaves it intact.
		for i := range cur {
			cur[i] ^= 0xFF
		}
		if msg := sameDiff(diff, want); msg != "" {
			t.Fatalf("diff aliases the page it was computed from: %s", msg)
		}
	})
}

// FuzzMergeRecorded drives the on-the-fly recording path (the Java
// protocols' put primitive) against a reference byte map.
func FuzzMergeRecorded(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2}, uint8(4))
	f.Add([]byte{10, 1, 11, 1, 12, 1}, uint8(2))
	f.Add([]byte{5, 9, 5, 9}, uint8(3))
	f.Fuzz(func(t *testing.T, ops []byte, width uint8) {
		const size = 64
		w := int(width%8) + 1
		ref := make([]byte, size)
		written := make([]bool, size)
		d := &Diff{Page: 3}
		for i := 0; i+1 < len(ops); i += 2 {
			off := int(ops[i]) % (size - w + 1)
			buf := bytes.Repeat([]byte{ops[i+1]}, w)
			d.MergeRecorded(off, buf)
			copy(ref[off:], buf)
			for j := off; j < off+w; j++ {
				written[j] = true
			}
		}
		got := make([]byte, size)
		ApplyDiff(got, d)
		for i := range ref {
			if written[i] && got[i] != ref[i] {
				t.Fatalf("byte %d = %#x, want %#x", i, got[i], ref[i])
			}
			if !written[i] && got[i] != 0 {
				t.Fatalf("byte %d written spuriously", i)
			}
		}
	})
}
