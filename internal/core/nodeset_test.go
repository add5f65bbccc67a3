package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// refSet is the sorted-[]int reference model NodeSet replaced; the property
// tests below drive both through random op sequences and require identical
// observable behaviour at every step.
type refSet map[int]bool

func (r refSet) add(n int)           { r[n] = true }
func (r refSet) remove(n int)        { delete(r, n) }
func (r refSet) contains(n int) bool { return r[n] }
func (r refSet) sorted() []int {
	out := make([]int, 0, len(r))
	for n := range r {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// checkAgainst fails the test if s and ref disagree on any observable.
func checkAgainst(t *testing.T, s *NodeSet, ref refSet, ctx string) {
	t.Helper()
	want := ref.sorted()
	got := s.AppendTo(nil)
	if len(got) == 0 {
		got = nil
	}
	if len(want) == 0 {
		want = nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: AppendTo = %v, want %v", ctx, got, want)
	}
	if s.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", ctx, s.Len(), len(want))
	}
	if s.Empty() != (len(want) == 0) {
		t.Fatalf("%s: Empty = %v with %d members", ctx, s.Empty(), len(want))
	}
}

// TestNodeSetPropertyVsReference drives NodeSet and the sorted-slice
// reference through identical random add/remove sequences — several RNG
// seeds, universes inside the inline word (16, 64) and on both sides of it
// (65, 70 and wider) — and spot-checks membership over the whole universe,
// and one word beyond it, after every batch.
func TestNodeSetPropertyVsReference(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		universe int
		ops      int
	}{
		{seed: 1, universe: 16, ops: 400},    // dense, inline word only
		{seed: 2, universe: 600, ops: 2000},  // sparse at 512-node scale
		{seed: 3, universe: 200, ops: 3000},  // heavy churn across four words
		{seed: 4, universe: 70, ops: 1500},   // straddles the inline word
		{seed: 5, universe: 4096, ops: 1200}, // wide universe, ranges
		{seed: 6, universe: 64, ops: 1500},   // exactly the inline word
		{seed: 7, universe: 65, ops: 1500},   // one id past it
	} {
		tc := tc
		t.Run(fmt.Sprintf("seed%d_u%d", tc.seed, tc.universe), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			var s NodeSet
			ref := refSet{}
			for i := 0; i < tc.ops; i++ {
				n := rng.Intn(tc.universe)
				switch op := rng.Intn(10); {
				case op < 5:
					s.Add(n)
					ref.add(n)
				case op < 8:
					s.Remove(n)
					ref.remove(n)
				default: // range insert: the common copyset growth pattern
					for v := n; v <= n+rng.Intn(8); v++ {
						s.Add(v)
						ref.add(v)
					}
				}
				if s.Contains(n) != ref.contains(n) {
					t.Fatalf("op %d: Contains(%d) = %v, ref %v", i, n, s.Contains(n), ref.contains(n))
				}
				if i%97 == 0 {
					checkAgainst(t, &s, ref, fmt.Sprintf("op %d", i))
				}
			}
			checkAgainst(t, &s, ref, "final")
			// Membership across the whole universe and one word past it,
			// including non-members.
			for n := -1; n < tc.universe+64; n++ {
				if s.Contains(n) != ref.contains(n) {
					t.Fatalf("final: Contains(%d) = %v, ref %v", n, s.Contains(n), ref.contains(n))
				}
			}
		})
	}
}

// TestNodeSetSnapshotRoundTrip pins the wire form: AppendTo must emit the
// exact sorted slice snapshots have always carried, and FromSlice must
// rebuild an equivalent set from it (in any input order, with duplicates).
func TestNodeSetSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var s NodeSet
		ref := refSet{}
		for i := 0; i < rng.Intn(200); i++ {
			n := rng.Intn(512)
			s.Add(n)
			ref.add(n)
		}
		wire := s.AppendTo(nil)
		if !sort.IntsAreSorted(wire) {
			t.Fatalf("trial %d: wire form not sorted: %v", trial, wire)
		}
		// Shuffle and duplicate some members before rebuilding: custom
		// protocols may assemble wire copysets by hand.
		scrambled := append([]int(nil), wire...)
		scrambled = append(scrambled, wire...)
		rng.Shuffle(len(scrambled), func(i, j int) {
			scrambled[i], scrambled[j] = scrambled[j], scrambled[i]
		})
		var back NodeSet
		back.FromSlice(scrambled)
		checkAgainst(t, &back, ref, fmt.Sprintf("trial %d round trip", trial))
	}
}

// TestNodeSetBitmapCrossing fills alternating ids from the inline word into
// three overflow words and checks behaviour stays identical across the word
// boundaries, including Clone and Take: after Take the two sets share
// nothing, so changing either leaves the other alone.
func TestNodeSetBitmapCrossing(t *testing.T) {
	var s NodeSet
	ref := refSet{}
	for n := 0; n < 256; n += 2 {
		s.Add(n)
		ref.add(n)
	}
	checkAgainst(t, &s, ref, "after crossing")

	cl := s.Clone()
	cl.Add(1)
	cl.Remove(200)
	if s.Contains(1) || !s.Contains(200) {
		t.Fatal("Clone shares storage with the original")
	}

	taken := s.Take()
	checkAgainst(t, &s, refSet{}, "emptied by Take")
	checkAgainst(t, &taken, ref, "taken set")

	// The emptied receiver is reusable, inline word and overflow alike.
	s.Add(3)
	s.Add(401)
	taken.Remove(4)
	taken.Remove(130)
	ref.remove(4)
	ref.remove(130)
	checkAgainst(t, &taken, ref, "taken set after both changed")
	checkAgainst(t, &s, refSet{3: true, 401: true}, "receiver after both changed")
}

// TestNodeSetRunCoalescing: a 512-node read-shared page holds every id
// however its members arrive. It fills 0..511 in a scrambled order — the
// inline word and seven more — then punches a hole at each word edge and in
// the interior and refills it, checking against the reference throughout.
func TestNodeSetRunCoalescing(t *testing.T) {
	var s NodeSet
	ref := refSet{}
	for _, n := range rand.New(rand.NewSource(13)).Perm(512) {
		s.Add(n)
		ref.add(n)
	}
	checkAgainst(t, &s, ref, "512 members")
	for _, n := range []int{0, 63, 64, 100, 511} {
		s.Remove(n)
		ref.remove(n)
		if s.Contains(n) {
			t.Fatalf("Contains(%d) after removing it", n)
		}
		checkAgainst(t, &s, ref, fmt.Sprintf("after removing %d", n))
		s.Add(n)
		ref.add(n)
		checkAgainst(t, &s, ref, fmt.Sprintf("after refilling %d", n))
	}
}

// TestNodeSetNegativeQueries: a negative id is never a member, and removing
// one changes nothing.
func TestNodeSetNegativeQueries(t *testing.T) {
	var s NodeSet
	ref := refSet{}
	for n := 0; n <= 70; n++ {
		s.Add(n)
		ref.add(n)
	}
	if s.Contains(-1) || s.Contains(-64) {
		t.Fatal("Contains of a negative id reports a member")
	}
	s.Remove(-1)
	s.Remove(-65)
	checkAgainst(t, &s, ref, "after removing negative ids")
}

// TestNodeSetStringForm pins the diagnostic rendering to the sorted-slice
// shape test-failure messages have always shown.
func TestNodeSetStringForm(t *testing.T) {
	var s NodeSet
	for _, n := range []int{9, 1, 4} {
		s.Add(n)
	}
	if got := fmt.Sprintf("%v", s); got != "[1 4 9]" {
		t.Fatalf("String = %q, want %q", got, "[1 4 9]")
	}
	var empty NodeSet
	if got := fmt.Sprintf("%v", empty); got != "[]" {
		t.Fatalf("empty String = %q, want %q", got, "[]")
	}
}

// TestNodeSetNegativePanics pins the contract that node ids are never
// negative (slice -1 metadata is directory-side, not copyset-side).
func TestNodeSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var s NodeSet
	s.Add(-1)
}
