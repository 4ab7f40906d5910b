package bitset

import "testing"

// Has reports whether i is in the set: the membership oracle of these tests
// (production code tests membership through TryAdd).
func (s *Set) Has(i int32) bool {
	w := int(i >> 6)
	return w < len(s.words) && s.words[w]&(1<<uint(i&63)) != 0
}

// Count returns the number of members.
func (s *Set) Count() int {
	n := 0
	for _, w := range s.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

func TestBasicOps(t *testing.T) {
	var s Set
	if s.Has(0) || s.Has(1000) {
		t.Fatal("zero-value set should be empty")
	}
	if !s.TryAdd(5) {
		t.Fatal("TryAdd of a new member must return true")
	}
	if s.TryAdd(5) {
		t.Fatal("TryAdd of an existing member must return false")
	}
	if !s.Has(5) || s.Count() != 1 {
		t.Fatalf("expected {5}, count=%d", s.Count())
	}
	s.TryAdd(64) // word boundary
	s.TryAdd(65)
	if !s.Has(64) || !s.Has(65) || s.Count() != 3 {
		t.Fatalf("word-boundary members missing, count=%d", s.Count())
	}
}

func TestGrow(t *testing.T) {
	var s Set
	s.Grow(129)
	if len(s.words) != 3 {
		t.Fatalf("Grow(129): want 3 words, got %d", len(s.words))
	}
	s.TryAdd(1 << 14)
	if !s.Has(1 << 14) {
		t.Fatal("TryAdd must grow the set")
	}
}

// TestGrowExact: Grow(n) for n at and around multiples of 64 must allocate
// exactly ceil(n/64) words — the off-by-one here is the classic bug.
func TestGrowExact(t *testing.T) {
	for _, tc := range []struct{ n, words int }{
		{0, 0}, {1, 1}, {63, 1}, {64, 1}, {65, 2}, {127, 2}, {128, 2}, {129, 3},
	} {
		var s Set
		s.Grow(tc.n)
		if len(s.words) != tc.words {
			t.Errorf("Grow(%d): want %d words, got %d", tc.n, tc.words, len(s.words))
		}
	}
}

// TestGrowPreserves: growing across a reallocation must keep every member,
// and a smaller Grow must never shrink or clobber.
func TestGrowPreserves(t *testing.T) {
	var s Set
	members := []int32{0, 63, 64, 127, 128, 1000}
	for _, m := range members {
		s.TryAdd(m)
	}
	s.Grow(1 << 16) // reallocate
	for _, m := range members {
		if !s.Has(m) {
			t.Errorf("member %d lost after Grow reallocation", m)
		}
	}
	before := len(s.words)
	s.Grow(8) // smaller than current capacity: no-op
	if len(s.words) != before {
		t.Errorf("Grow(8) shrank the set: %d -> %d words", before, len(s.words))
	}
	if s.Count() != len(members) {
		t.Errorf("Count = %d, want %d", s.Count(), len(members))
	}
}

// TestWordBoundaries exercises every operation at bit positions 63/64 and
// 127/128 where the word index and the in-word shift both change.
func TestWordBoundaries(t *testing.T) {
	var s Set
	edges := []int32{0, 62, 63, 64, 65, 126, 127, 128, 129}
	for _, e := range edges {
		if !s.TryAdd(e) {
			t.Errorf("TryAdd(%d) on empty set returned false", e)
		}
		if s.TryAdd(e) {
			t.Errorf("second TryAdd(%d) returned true", e)
		}
	}
	if s.Count() != len(edges) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(edges))
	}
	// Clearing one side of each boundary must not disturb the other.
	s.ClearMembers([]int32{63, 128})
	for _, want := range []struct {
		i  int32
		in bool
	}{{62, true}, {63, false}, {64, true}, {127, true}, {128, false}, {129, true}} {
		if s.Has(want.i) != want.in {
			t.Errorf("after boundary clears: Has(%d) = %v, want %v", want.i, !want.in, want.in)
		}
	}
}

// TestClearMembers: the O(members) sparse clear must remove exactly the
// listed members, tolerate duplicates and out-of-capacity ids, and leave
// everything else intact.
func TestClearMembers(t *testing.T) {
	var s Set
	kept := []int32{1, 64, 200}
	cleared := []int32{0, 63, 65, 128}
	for _, m := range append(append([]int32{}, kept...), cleared...) {
		s.TryAdd(m)
	}
	// Duplicates and ids beyond capacity must be harmless no-ops.
	list := append(append([]int32{}, cleared...), cleared[0], 1<<20)
	s.ClearMembers(list)
	for _, m := range cleared {
		if s.Has(m) {
			t.Errorf("ClearMembers left %d in the set", m)
		}
	}
	for _, m := range kept {
		if !s.Has(m) {
			t.Errorf("ClearMembers removed unlisted member %d", m)
		}
	}
	if s.Count() != len(kept) {
		t.Errorf("Count = %d, want %d", s.Count(), len(kept))
	}
}

// TestCountMultiWord: Count must sum across words, including full words.
func TestCountMultiWord(t *testing.T) {
	var s Set
	for i := int32(0); i < 130; i++ {
		s.TryAdd(i)
	}
	if s.Count() != 130 {
		t.Fatalf("Count = %d, want 130", s.Count())
	}
	var evens []int32
	for i := int32(0); i < 130; i += 2 {
		evens = append(evens, i)
	}
	s.ClearMembers(evens)
	if s.Count() != 65 {
		t.Fatalf("after clearing evens: Count = %d, want 65", s.Count())
	}
}
