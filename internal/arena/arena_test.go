package arena

import (
	"testing"
	"unsafe"

	"dtgp/internal/parallel"
)

// TestChunkBoundaryGrowth allocates far more than one chunk and verifies
// every allocation is disjoint and retains its contents.
func TestChunkBoundaryGrowth(t *testing.T) {
	a := New(1 << 10) // tiny chunks force many boundary crossings
	const numSlices = 200
	slices := make([][]int32, numSlices)
	for i := range slices {
		n := 1 + (i*7)%97 // varied sizes, some spanning most of a chunk
		s := Make[int32](a, n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Make(%d): len=%d cap=%d", n, len(s), cap(s))
		}
		for j := range s {
			if s[j] != 0 {
				t.Fatalf("slice %d not zeroed at %d", i, j)
			}
			s[j] = int32(i)
		}
		slices[i] = s
	}
	// Writing into each slice must not have clobbered any other.
	for i, s := range slices {
		for j, v := range s {
			if v != int32(i) {
				t.Fatalf("slice %d[%d] = %d, want %d (overlap)", i, j, v, i)
			}
		}
	}
	st := a.Stats()
	if st.Chunks < 2 {
		t.Fatalf("expected growth across chunks, got %d chunk(s)", st.Chunks)
	}
}

// TestAlignment interleaves odd-sized bool allocations with float64/int64
// ones and checks every allocation base is 8-aligned.
func TestAlignment(t *testing.T) {
	a := New(1 << 12)
	for i := 0; i < 100; i++ {
		b := Make[bool](a, 1+i%5)
		f := Make[float64](a, 3)
		u := Make[int64](a, 2)
		e := Make[[2]int32](a, 4)
		for _, p := range []uintptr{
			uintptr(unsafe.Pointer(&b[0])),
			uintptr(unsafe.Pointer(&f[0])),
			uintptr(unsafe.Pointer(&u[0])),
			uintptr(unsafe.Pointer(&e[0])),
		} {
			if p%8 != 0 {
				t.Fatalf("iteration %d: allocation base %#x not 8-aligned", i, p)
			}
		}
	}
}

// TestOversizeAllocation verifies requests larger than the chunk size get a
// dedicated chunk and stay usable.
func TestOversizeAllocation(t *testing.T) {
	a := New(1 << 10)
	big := Make[float64](a, 4096) // 32 KiB into a 1 KiB-chunk arena
	for i := range big {
		big[i] = float64(i)
	}
	small := Make[int32](a, 8)
	for i := range small {
		small[i] = -1
	}
	for i := range big {
		if big[i] != float64(i) {
			t.Fatalf("oversize slice clobbered at %d", i)
		}
	}
}

// TestAppendPastCapReallocates: appending beyond an arena slice's exact
// capacity must reallocate onto the GC heap, never bleed into the
// neighbouring allocation.
func TestAppendPastCapReallocates(t *testing.T) {
	a := New(1 << 12)
	s := Make[int32](a, 4)
	neighbour := Make[int32](a, 4)
	for i := range neighbour {
		neighbour[i] = 7
	}
	s = append(s, 99) // beyond cap → new backing array
	s[4] = 100
	for i, v := range neighbour {
		if v != 7 {
			t.Fatalf("append past cap clobbered neighbour[%d] = %d", i, v)
		}
	}
}

// TestRaceStressUnderPool carves per-worker buffers serially, then has the
// worker pool write them concurrently. Under -race this catches any hidden
// sharing between allocations (e.g. an alignment bug creating overlap).
func TestRaceStressUnderPool(t *testing.T) {
	a := New(1 << 14)
	const numBufs = 64
	const bufLen = 257 // odd length so buffers straddle chunk boundaries
	bufs := make([][]float64, numBufs)
	for i := range bufs {
		bufs[i] = Make[float64](a, bufLen)
	}
	for round := 0; round < 8; round++ {
		parallel.ForCost(numBufs, parallel.CostHeavy, func(i int) {
			b := bufs[i]
			for j := range b {
				b[j] = float64(i*1000 + j)
			}
		})
		parallel.ForCost(numBufs, parallel.CostHeavy, func(i int) {
			b := bufs[i]
			for j := range b {
				if b[j] != float64(i*1000+j) {
					panic("arena buffer overlap detected")
				}
			}
		})
	}
}

// TestMakeCapZeroLen verifies the common pre-size idiom: length 0, positive
// capacity, appended into later without reallocation.
func TestMakeCapZeroLen(t *testing.T) {
	a := New(1 << 12)
	s := MakeCap[int32](a, 0, 16)
	if len(s) != 0 || cap(s) != 16 {
		t.Fatalf("len=%d cap=%d", len(s), cap(s))
	}
	base := unsafe.SliceData(s)
	for i := 0; i < 16; i++ {
		s = append(s, int32(i))
	}
	if unsafe.SliceData(s) != base {
		t.Fatalf("append within cap reallocated")
	}
}
