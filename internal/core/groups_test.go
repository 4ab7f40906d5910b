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
// the levels' group ranges tile the groups in level order, every group's
// pin window is a non-empty part of the groupPins slab, a level's net
// groups (before levelNetEnd) hold net sinks and its cell groups cell
// outputs, and every non-start timed pin of a level is grouped exactly
// once.
func TestGroupsCSRStructure(t *testing.T) {
	g := makeTestBed(t, 300, 44)
	tm := NewTimer(g, DefaultOptions())
	nLevels := len(g.Levels)
	if len(tm.levelGroup) != nLevels+1 || len(tm.levelNetEnd) != nLevels || tm.levelGroup[0] != 0 ||
		int(tm.levelGroup[nLevels]) != len(tm.groupOff)-1 || tm.groupOff[0] != 0 ||
		int(tm.groupOff[len(tm.groupOff)-1]) != len(tm.groupPins) {
		t.Fatal("the level and group offsets do not tile the groups and the slab")
	}
	seen := make(map[int32]bool)
	total := 0
	for li := 0; li < nLevels; li++ {
		lo, netEnd, hi := tm.levelGroup[li], tm.levelNetEnd[li], tm.levelGroup[li+1]
		if lo > netEnd || netEnd > hi {
			t.Fatalf("level %d: groups [%d, %d) with net groups up to %d", li, lo, hi, netEnd)
		}
		for k := lo; k < hi; k++ {
			pins := tm.groupPins[tm.groupOff[k]:tm.groupOff[k+1]]
			if len(pins) == 0 {
				t.Fatalf("level %d: empty group", li)
			}
			for _, pid := range pins {
				if isNet := k < netEnd; isNet != g.IsNetSink[pid] || !isNet && !g.IsCellOut[pid] {
					t.Fatalf("level %d: pin %d in a group of the wrong kind", li, pid)
				}
				if seen[pid] {
					t.Fatalf("pin %d grouped twice", pid)
				}
				seen[pid] = true
				if g.Level[pid] != int32(li) {
					t.Fatalf("pin %d in level %d groups but levelised at %d", pid, li, g.Level[pid])
				}
			}
			total += len(pins)
		}
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
