// Package bitset provides a dense bit set keyed by small non-negative
// integers. It backs the touched-net worklist of the incremental exact STA
// (and anywhere else a map[int32]bool used to serve as a membership set):
// membership tests are branch-free word operations, and — unlike a map —
// the set has no iteration order to leak into results, so code that drains
// an explicit worklist with bitset membership is deterministic by
// construction.
package bitset

// Set is a growable bit set. The zero value is an empty set ready for use.
type Set struct {
	words []uint64
}

// Grow ensures the set can hold members in [0, n) without reallocating.
func (s *Set) Grow(n int) {
	if need := (n + 63) >> 6; need > len(s.words) {
		w := make([]uint64, need)
		copy(w, s.words)
		s.words = w
	}
}

// TryAdd inserts i and reports whether it was newly added (false when i was
// already a member). It grows the set as needed.
func (s *Set) TryAdd(i int32) bool {
	s.Grow(int(i) + 1)
	mask := uint64(1) << uint(i&63)
	w := &s.words[i>>6]
	if *w&mask != 0 {
		return false
	}
	*w |= mask
	return true
}

// ClearMembers removes every listed member. For a set whose members are
// tracked in a side list this is O(len(members)) instead of an O(capacity)
// sweep of every word, which is what keeps clearing a small touched set
// cheap when the universe is large.
func (s *Set) ClearMembers(members []int32) {
	for _, i := range members {
		if w := int(i >> 6); w < len(s.words) {
			s.words[w] &^= 1 << uint(i&63)
		}
	}
}
