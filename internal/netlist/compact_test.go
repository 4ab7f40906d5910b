package netlist

import (
	"testing"
	"unsafe"

	"dtgp/internal/arena"
)

// TestCompactPreservesValues: pin-list contents, order and Validate must be
// unchanged by the flat re-layout.
func TestCompactPreservesValues(t *testing.T) {
	d := buildToy(t)
	wantCells := make([][]int32, len(d.Cells))
	for i := range d.Cells {
		wantCells[i] = append([]int32(nil), d.Cells[i].Pins...)
	}
	wantNets := make([][]int32, len(d.Nets))
	for i := range d.Nets {
		wantNets[i] = append([]int32(nil), d.Nets[i].Pins...)
	}

	a := arena.New(1 << 12)
	d.Compact(a)

	for i := range d.Cells {
		got := d.Cells[i].Pins
		if len(got) != len(wantCells[i]) {
			t.Fatalf("cell %d: len %d want %d", i, len(got), len(wantCells[i]))
		}
		for j := range got {
			if got[j] != wantCells[i][j] {
				t.Fatalf("cell %d pin %d: %d want %d", i, j, got[j], wantCells[i][j])
			}
		}
		if cap(got) != len(got) {
			t.Fatalf("cell %d: cap %d != len %d (window not exact)", i, cap(got), len(got))
		}
	}
	for i := range d.Nets {
		got := d.Nets[i].Pins
		for j := range got {
			if got[j] != wantNets[i][j] {
				t.Fatalf("net %d pin %d: %d want %d", i, j, got[j], wantNets[i][j])
			}
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after Compact: %v", err)
	}
}

// TestCompactFlatBacking: consecutive cell pin lists must be adjacent in
// one backing slab (the point of the exercise).
func TestCompactFlatBacking(t *testing.T) {
	d := buildToy(t)
	d.Compact(arena.New(1 << 12))
	var prevEnd unsafe.Pointer
	for i := range d.Cells {
		p := d.Cells[i].Pins
		if len(p) == 0 {
			continue
		}
		start := unsafe.Pointer(&p[0])
		if prevEnd != nil && start != prevEnd {
			t.Fatalf("cell %d pins not contiguous with previous list", i)
		}
		prevEnd = unsafe.Add(start, uintptr(len(p))*unsafe.Sizeof(int32(0)))
	}
}

// TestCompactIdempotent: a second Compact (a design placed again, by a run
// with an arena of its own) must not move or re-copy anything.
func TestCompactIdempotent(t *testing.T) {
	d := buildToy(t)
	d.Compact(arena.New(1 << 12))
	before := unsafe.SliceData(d.Cells[0].Pins)
	d.Compact(arena.New(1 << 12))
	if unsafe.SliceData(d.Cells[0].Pins) != before {
		t.Fatalf("Compact not idempotent: pin lists moved")
	}
}

// TestCloneAfterCompact: a clone of a compacted design owns fresh heap
// slices and must survive the original's slab being overwritten.
func TestCloneAfterCompact(t *testing.T) {
	d := buildToy(t)
	d.Compact(arena.New(1 << 12))
	c := d.Clone()
	for ci := range d.Cells {
		for k := range d.Cells[ci].Pins {
			d.Cells[ci].Pins[k] = -12345
		}
	}
	for ni := range d.Nets {
		for k := range d.Nets[ni].Pins {
			d.Nets[ni].Pins[k] = -12345
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone corrupted through the original's slab: %v", err)
	}
}
