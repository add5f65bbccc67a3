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
// low mantissa bytes and often leave the exponent bytes equal. Each round
// refills one diff, as the DSM's pooled records are refilled, so CI pins it
// at 0 allocs/op.
func BenchmarkComputeDiff(b *testing.B) {
	const pageSize = 4096
	sparse := func(cur []byte) {
		for w := 0; w < 64; w++ {
			cur[64*w]++
		}
	}
	dense := func(cur []byte) {
		prev := 1.0
		for w := 0; w < pageSize/8; w++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(cur[8*w:]))
			next := 0.25 * (prev + 2*v + float64(w%7))
			binary.LittleEndian.PutUint64(cur[8*w:], math.Float64bits(next))
			prev = v
		}
	}
	for _, bc := range []struct {
		name  string
		dirty func(cur []byte)
	}{{"sparse64", sparse}, {"denseRow", dense}} {
		b.Run(bc.name, func(b *testing.B) {
			twin := make([]byte, pageSize)
			dense(twin) // non-trivial contents under both patterns
			cur := MakeTwin(twin)
			bc.dirty(cur)
			var df Diff
			df.Compute(1, twin, cur, 8) // grows the buffers the rounds reuse
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
