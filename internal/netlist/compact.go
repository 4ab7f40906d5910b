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
// Each window is carved with exact capacity, so a later append (nothing in
// the pipeline appends after Finish) reallocates onto the GC heap instead
// of clobbering the neighbouring list.
//
// Compact is idempotent: a second call is a no-op, so a design placed again
// keeps the slab of its first compaction.
func (d *Design) Compact(a *arena.Arena) {
	if d.compacted {
		return
	}
	total := 0
	for i := range d.Cells {
		total += len(d.Cells[i].Pins)
	}
	for i := range d.Nets {
		total += len(d.Nets[i].Pins)
	}
	flat := arena.Make[int32](a, total) //dtgp:index elem=pin
	off := 0
	for i := range d.Cells {
		off = relay(&d.Cells[i].Pins, flat, off)
	}
	for i := range d.Nets {
		off = relay(&d.Nets[i].Pins, flat, off)
	}
	d.compacted = true
}

// relay copies *pins into flat[off:] and repoints *pins at that window.
func relay(pins *[]int32, flat []int32, off int) int {
	n := len(*pins)
	dst := flat[off : off+n : off+n]
	copy(dst, *pins)
	*pins = dst
	return off + n
}
