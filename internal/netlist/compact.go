package netlist

import "dtgp/internal/arena"

// Compact re-lays every cell's and every net's pin list as windows into one
// flat int32 slab (CSR-style storage with the offsets implicit in the slice
// headers). The jagged [][]int32 shape of the API is unchanged — callers
// still index d.Cells[ci].Pins — but a 2M-cell design goes from ~4M small
// GC objects to one slab, and pin lists visited in cell/net order are
// contiguous in memory. Values are copied bitwise; iteration order and
// results are identical to the jagged layout.
//
// The slab is the design's own, made on the GC heap (pointer-free, so the
// collector never scans it). The arena argument is not used; callers that
// still pass an engine's arena compile unchanged. A design outlives the
// engines that place it, and a slab in an engine's arena would keep that
// arena's chunk alive for as long as the design, through every later
// placement of it. Each window is carved with
// exact capacity, so a later append (nothing in the pipeline appends after
// Finish) reallocates instead of clobbering the neighbouring list.
//
// Compact is idempotent: a second call is a no-op, so a design placed again
// keeps its slab.
func (d *Design) Compact(*arena.Arena) {
	if d.pinSlab != nil {
		return
	}
	total := 0
	for i := range d.Cells {
		total += len(d.Cells[i].Pins)
	}
	for i := range d.Nets {
		total += len(d.Nets[i].Pins)
	}
	d.pinSlab = make([]int32, total)
	off := 0
	for i := range d.Cells {
		off = relay(&d.Cells[i].Pins, d.pinSlab, off)
	}
	for i := range d.Nets {
		off = relay(&d.Nets[i].Pins, d.pinSlab, off)
	}
}

// relay copies *pins into flat[off:] and repoints *pins at that window.
func relay(pins *[]int32, flat []int32, off int) int {
	n := len(*pins)
	dst := flat[off : off+n : off+n]
	copy(dst, *pins)
	*pins = dst
	return off + n
}
