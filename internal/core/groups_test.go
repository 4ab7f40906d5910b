package core

import (
	"testing"

	"dtgp/internal/netlist"
)

// moveCells perturbs every movable cell deterministically so the lazy
// refresh and per-net rebuilds get exercised.
func moveCells(d *netlist.Design, step int) {
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Fixed() {
			continue
		}
		c.Pos.X += float64((ci+step)%7) - 3
		c.Pos.Y += float64((ci*3+step)%5) - 2
	}
}

// TestGroupsCSRStructure checks the CSR invariants buildGroups promises:
// every group's pin window lives in the groupPins slab, net groups precede
// cell groups within a level, and every non-start timed pin of a level is
// grouped exactly once.
func TestGroupsCSRStructure(t *testing.T) {
	g := makeTestBed(t, 300, 44)
	tm := NewTimer(g, DefaultOptions())
	seen := make(map[int32]bool)
	total := 0
	for li, groups := range tm.bwdGroups {
		inCells := false
		for _, grp := range groups {
			if grp.isNet && inCells {
				t.Fatalf("level %d: net group after cell group", li)
			}
			if !grp.isNet {
				inCells = true
			}
			if len(grp.pins) == 0 {
				t.Fatalf("level %d: empty group", li)
			}
			for _, pid := range grp.pins {
				if seen[pid] {
					t.Fatalf("pin %d grouped twice", pid)
				}
				seen[pid] = true
				if g.Level[pid] != int32(li) {
					t.Fatalf("pin %d in level %d groups but levelised at %d", pid, li, g.Level[pid])
				}
			}
			total += len(grp.pins)
		}
	}
	if total != len(tm.groupPins) {
		t.Fatalf("groups cover %d pins, slab holds %d", total, len(tm.groupPins))
	}
	want := 0
	for _, level := range g.Levels {
		for _, pid := range level {
			if g.IsStart[pid] {
				continue
			}
			if g.IsNetSink[pid] && g.NetOfSink[pid] < 0 {
				continue
			}
			if !g.IsNetSink[pid] && !g.IsCellOut[pid] {
				continue
			}
			want++
		}
	}
	if total != want {
		t.Fatalf("groups cover %d pins, levelisation has %d groupable pins", total, want)
	}
}
