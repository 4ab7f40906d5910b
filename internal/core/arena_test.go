package core

import (
	"testing"

	"dtgp/internal/arena"
	"dtgp/internal/gen"
	"dtgp/internal/netlist"
	"dtgp/internal/timing"
)

// arenaTestBed builds two timers over independently generated copies of the
// same design — one arena-backed (with a compacted netlist, as the placer
// wires it), one on the nil-arena heap path.
func arenaTestBed(t *testing.T, cells int, seed int64, opts Options) (withArena, noArena *Timer) {
	t.Helper()
	build := func(a *arena.Arena) *Timer {
		d, con, err := gen.Generate(gen.DefaultParams("core-arena", cells, seed))
		if err != nil {
			t.Fatal(err)
		}
		if a != nil {
			d.Compact(a)
		}
		g, err := timing.NewGraph(d, con)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Arena = a
		return NewTimer(g, o)
	}
	return build(arena.New(1 << 20)), build(nil)
}

// moveCells perturbs every movable cell deterministically so incremental
// refresh, per-net rebuilds and the sparse backward all get exercised.
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

// TestArenaBitIdentity: the arena changes only backing storage, never
// values. Run several evaluations with identical movement on both sides and
// demand bitwise equality of objective, gradients and reported metrics
// every iteration, under the defaults and under exact thresholds with the
// full backward.
func TestArenaBitIdentity(t *testing.T) {
	exactFull := DefaultOptions()
	exactFull.RefreshEps = 0
	exactFull.PropagateEps = 0
	exactFull.SparseBackward = false
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"exact-full", exactFull},
	} {
		t.Run(mode.name, func(t *testing.T) {
			ta, tn := arenaTestBed(t, 300, 41, mode.opts)
			for it := 0; it < 12; it++ {
				fa := ta.Evaluate(0.01, 0.0001)
				fn := tn.Evaluate(0.01, 0.0001)
				if fa != fn {
					t.Fatalf("iter %d: objective %v (arena) vs %v (heap)", it, fa, fn)
				}
				if ta.SmTNS != tn.SmTNS || ta.SmWNS != tn.SmWNS ||
					ta.EstTNS != tn.EstTNS || ta.EstWNS != tn.EstWNS {
					t.Fatalf("iter %d: metrics diverge", it)
				}
				for i := range ta.CellGradX {
					if ta.CellGradX[i] != tn.CellGradX[i] || ta.CellGradY[i] != tn.CellGradY[i] {
						t.Fatalf("iter %d: gradient differs at cell %d", it, i)
					}
				}
				moveCells(ta.G.D, it)
				moveCells(tn.G.D, it)
			}
		})
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

// TestFwdSpanSchedule: spans must partition the level range in order, with
// fused spans containing only sub-cutoff levels.
func TestFwdSpanSchedule(t *testing.T) {
	g := makeTestBed(t, 300, 45)
	tm := NewTimer(g, DefaultOptions())
	next := int32(0)
	for _, sp := range tm.fwdSpans {
		if sp.lo != next || sp.hi <= sp.lo {
			t.Fatalf("span [%d,%d) does not continue at %d", sp.lo, sp.hi, next)
		}
		for li := sp.lo; li < sp.hi; li++ {
			small := len(g.Levels[li]) < fuseMaxLevel
			if sp.fused && !small {
				t.Fatalf("level %d (size %d) fused above cutoff", li, len(g.Levels[li]))
			}
			if !sp.fused && small {
				t.Fatalf("level %d (size %d) not fused", li, len(g.Levels[li]))
			}
		}
		next = sp.hi
	}
	if int(next) != len(g.Levels) {
		t.Fatalf("spans end at %d, want %d levels", next, len(g.Levels))
	}
}
