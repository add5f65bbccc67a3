package core

import (
	"fmt"
	"math/bits"
)

// NodeSet is a set of node ids: a bitmap whose first word is held inline, so
// a set of nodes below 64 — every copyset of the four benchmark workloads and
// the paper tables — never allocates, and emptying a copyset with Take and refilling it costs
// nothing. Nodes 64 and up live in more, one word per 64 ids, grown on the
// first Add that needs it; membership is one word test, sweeps and the wire
// form cost O(N/64) words.
//
// Iteration order is always ascending node id, so wire traces and goldens
// are independent of the representation. The zero value is an empty set,
// ready to use.
type NodeSet struct {
	w0   uint64   // nodes 0..63
	more []uint64 // more[i] holds nodes 64(i+1) .. 64(i+2)-1
	n    int      // cardinality, maintained by every mutation
}

// Len reports the number of members.
func (s NodeSet) Len() int { return s.n }

// Empty reports whether the set has no members.
func (s NodeSet) Empty() bool { return s.n == 0 }

// word returns the bitmap word holding the ids of word index w, which the
// caller guarantees exists (w <= len(s.more)).
func (s *NodeSet) word(w int) *uint64 {
	if w == 0 {
		return &s.w0
	}
	return &s.more[w-1]
}

// Contains reports whether node is a member.
func (s NodeSet) Contains(node int) bool {
	w := node >> 6
	return node >= 0 && w <= len(s.more) && *s.word(w)&(1<<(uint(node)&63)) != 0
}

// Add inserts node (no-op if present).
func (s *NodeSet) Add(node int) {
	if node < 0 {
		panic(fmt.Sprintf("core: negative node %d in NodeSet", node))
	}
	w := node >> 6
	if w > len(s.more) {
		s.more = append(s.more, make([]uint64, w-len(s.more))...)
	}
	p, m := s.word(w), uint64(1)<<(uint(node)&63)
	if *p&m == 0 {
		*p |= m
		s.n++
	}
}

// Remove deletes node (no-op if absent).
func (s *NodeSet) Remove(node int) {
	if node < 0 || node>>6 > len(s.more) {
		return
	}
	p, m := s.word(node>>6), uint64(1)<<(uint(node)&63)
	if *p&m != 0 {
		*p &^= m
		s.n--
	}
}

// Clear empties the set.
func (s *NodeSet) Clear() { *s = NodeSet{} }

// Take returns the set's contents and empties the receiver — the NodeSet
// analogue of the old TakeCopyset slice steal. The two sets share nothing.
func (s *NodeSet) Take() NodeSet {
	out := *s
	*s = NodeSet{}
	return out
}

// ForEach calls fn for every member in ascending node order.
func (s NodeSet) ForEach(fn func(node int)) {
	word := s.w0
	for w := 0; ; w++ {
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + bits.TrailingZeros64(word))
		}
		if w == len(s.more) {
			return
		}
		word = s.more[w]
	}
}

// AppendTo appends the members to dst in ascending order — the sorted-slice
// wire form snapshots and page messages have always carried.
func (s NodeSet) AppendTo(dst []int) []int {
	s.ForEach(func(n int) { dst = append(dst, n) })
	return dst
}

// FromSlice replaces the contents with the given nodes (any order,
// duplicates ignored).
func (s *NodeSet) FromSlice(nodes []int) {
	s.Clear()
	for _, n := range nodes {
		s.Add(n)
	}
}

// String renders the set exactly like the sorted []int it replaced, so
// diagnostics and test failure messages keep their historical shape.
func (s NodeSet) String() string { return fmt.Sprint(s.AppendTo(nil)) }
