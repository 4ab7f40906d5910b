// Package arena provides a chunked bump allocator for the pointer-free SoA
// slices that dominate memory at paper scale (DESIGN.md §13). A 2M-cell
// timing graph allocated with plain make is millions of small slices — each
// a separate GC object with its own header, scan metadata and cache-hostile
// placement. The arena instead carves them out of a handful of large []byte
// slabs: allocation is a bump of an offset, freeing is wholesale (the GC
// reclaims the slabs once the arena and every slice carved from it are
// unreachable), and slices requested consecutively are adjacent in memory,
// which is what the timer's level-ordered sweeps want.
//
// The element type set is restricted to fixed-size pointer-free kinds so a
// slab never holds pointers the GC would need to scan. Types with pointers
// (slices, strings, structs containing them) must stay on the GC heap via
// plain make.
//
// An Arena is NOT safe for concurrent use. The placer does all carving in
// serial pre-size passes; the worker pool only reads/writes the resulting
// slices, never allocates from the arena.
package arena

import (
	"fmt"
	"unsafe"
)

// DefaultChunkSize is the slab size New picks for chunkSize <= 0.
const DefaultChunkSize = 1 << 24 // 16 MiB

// ChunkSize picks the slab size for a design of the given cell count:
// roughly 1/16th of the expected total SoA footprint (~4 KB per cell across
// netlist, timer and net states), clamped to [1 MiB, 64 MiB]. Small test
// designs get small slabs; a 2M-cell design carves from tens of 64 MiB
// slabs.
func ChunkSize(cells int) int { return min(max(cells*256, 1<<20), 1<<26) }

// align is the guaranteed alignment of every allocation. 8 covers every
// type in the Plain constraint (float64/int64 need 8; the rest less).
const align = 8

// Plain is the constraint for arena-allocatable element types: fixed-size
// and pointer-free. [2]int32 is admitted for rsmt edge lists.
type Plain interface {
	~bool | ~int8 | ~uint8 | ~int16 | ~uint16 | ~int32 | ~uint32 |
		~int64 | ~uint64 | ~float32 | ~float64 | ~[2]int32
}

// Arena is a chunked bump allocator. The zero value is not usable; call New.
type Arena struct {
	chunkSize int
	chunks    [][]byte
	ci        int // index of the chunk currently being carved
	off       int // carve offset into chunks[ci]

	held int64 // total bytes across all chunks
	used int64 // bytes handed out (incl. alignment padding)
}

// New returns an arena that grows in chunks of chunkSize bytes (allocations
// larger than chunkSize get a dedicated chunk). chunkSize <= 0 selects
// DefaultChunkSize.
func New(chunkSize int) *Arena {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Arena{chunkSize: chunkSize}
}

// Stats is a point-in-time snapshot of arena usage.
type Stats struct {
	Chunks    int   // number of slabs held
	HeldBytes int64 // total slab bytes
	UsedBytes int64 // bytes carved (incl. padding)
}

// Stats reports current usage.
func (a *Arena) Stats() Stats {
	return Stats{Chunks: len(a.chunks), HeldBytes: a.held, UsedBytes: a.used}
}

// bytes carves n bytes, 8-aligned, from the current chunk, moving to the
// next (or growing) when it does not fit. n must be > 0.
func (a *Arena) bytes(n int) []byte {
	for {
		if a.ci < len(a.chunks) {
			c := a.chunks[a.ci]
			if a.off+n <= len(c) {
				// Heap slabs are at least 8-aligned, so aligning the offset
				// aligns the address; assert the base anyway — if the
				// runtime ever hands us a misaligned slab we want a loud
				// failure, not torn float64 loads.
				base := uintptr(unsafe.Pointer(&c[0]))
				if base%align != 0 {
					panic(fmt.Sprintf("arena: chunk base %#x not %d-aligned", base, align))
				}
				off := a.off
				a.off = off + (n+align-1)&^(align-1)
				if a.off > len(c) {
					a.off = len(c)
				}
				a.used += int64(a.off - off)
				return c[off : off+n : off+n]
			}
			a.ci++
			a.off = 0
			continue
		}
		size := a.chunkSize
		if n > size {
			size = n // oversize request: dedicated chunk
		}
		a.chunks = append(a.chunks, make([]byte, size))
		a.held += int64(size)
	}
}

// Make returns a zeroed []T of length n carved from the arena. The returned
// slice has capacity exactly n: appending beyond it reallocates onto the GC
// heap rather than clobbering a neighbouring allocation.
func Make[T Plain](a *Arena, n int) []T {
	return MakeCap[T](a, n, n)
}

// MakeCap returns a zeroed []T with the given length and capacity carved
// from the arena. Capacity is exact — see Make.
func MakeCap[T Plain](a *Arena, length, capacity int) []T {
	if length < 0 || capacity < length {
		panic(fmt.Sprintf("arena: MakeCap(%d, %d)", length, capacity))
	}
	if capacity == 0 {
		return []T{}
	}
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if capacity > (1<<60)/sz {
		panic(fmt.Sprintf("arena: MakeCap capacity %d overflows", capacity))
	}
	// Chunks come zeroed from make and every byte is carved at most once,
	// so the window needs no clearing.
	b := a.bytes(capacity * sz)
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), capacity)[:length:capacity]
}
