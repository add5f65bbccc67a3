package memory

import (
	"encoding/binary"
	"math"
	"testing"
)

var benchSink uint64

// BenchmarkSpaceReadUint64Hit is the cost the stand-in MMU adds to a load
// the hardware would let through: a present-page word read in a Space laid
// out like a DSM node's (frames in the static slot and in two node slices).
func BenchmarkSpaceReadUint64Hit(b *testing.B) {
	const pageSize = 4096
	s := NewSpace(pageSize)
	s.SetAccess(1, ReadOnly)
	pg := s.PageOf(3 << 30) // first page of node 2's slice
	s.SetAccess(pg, ReadWrite)
	s.SetAccess(s.PageOf(9<<30)+40, ReadOnly)
	base := s.Base(pg)
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := s.ReadUint64(base + Addr(8*(i%512)))
		if err != nil {
			b.Fatal(err)
		}
		sum += v
	}
	benchSink = sum
}

// BenchmarkComputeDiff times one release-time diff of a 4 KiB page at the
// DSM's gap of 8: sparse dirties one byte in every eighth word (the pattern
// benchmark/'s memory.ns_per_diff probe uses), dense rewrites every word the
// way a jacobi sweep does — neighbouring float64 averages, which change the
// low mantissa bytes and often leave the exponent bytes equal — and head
// rewrites the page's first 72 bytes and leaves a clean tail. Each round
// refills one diff, as the DSM's pooled records are refilled, so
// TestComputeDiffRefillsInPlace pins it at 0 allocs/op.
func BenchmarkComputeDiff(b *testing.B) {
	for _, bc := range diffPatterns {
		b.Run(bc.name, func(b *testing.B) {
			twin, cur, df := diffPin(bc.dirty)
			b.ReportAllocs()
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				df.Compute(1, twin, cur, 8)
				n += df.Size()
			}
			benchSink = uint64(n)
		})
	}
}

// TestComputeDiffRefillsInPlace pins BenchmarkComputeDiff's round at 0
// allocations under both patterns.
func TestComputeDiffRefillsInPlace(t *testing.T) {
	for _, bc := range diffPatterns {
		twin, cur, df := diffPin(bc.dirty)
		if n := testing.AllocsPerRun(100, func() { df.Compute(1, twin, cur, 8) }); n != 0 {
			t.Errorf("%s: refilling a diff allocates %v times, pinned at 0", bc.name, n)
		}
	}
}

const diffPageSize = 4096

func denseDirty(cur []byte) {
	prev := 1.0
	for w := 0; w < diffPageSize/8; w++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(cur[8*w:]))
		next := 0.25 * (prev + 2*v + float64(w%7))
		binary.LittleEndian.PutUint64(cur[8*w:], math.Float64bits(next))
		prev = v
	}
}

var diffPatterns = []struct {
	name  string
	dirty func(cur []byte)
}{
	{"sparse64", func(cur []byte) {
		for w := 0; w < 64; w++ {
			cur[64*w]++
		}
	}},
	{"denseRow", denseDirty},
	{"head72", func(cur []byte) { // a record at the page's start, the rest clean
		for b := 0; b < 72; b++ {
			cur[b]++
		}
	}},
}

// diffPin is a twin with non-trivial contents, its page dirtied by dirty, and
// a diff of the two whose buffers have grown to what the rounds reuse.
func diffPin(dirty func(cur []byte)) (twin, cur []byte, df *Diff) {
	twin = make([]byte, diffPageSize)
	denseDirty(twin)
	cur = MakeTwin(twin)
	dirty(cur)
	df = new(Diff)
	df.Compute(1, twin, cur, 8)
	return twin, cur, df
}
