package core

import (
	"math"
	"testing"

	"dtgp/internal/rctree"
	"dtgp/internal/rsmt"
	"dtgp/internal/timing"
)

// perNetFold is the Fig. 4 redistribution as a serial loop over nets, each
// swept into a Grad of its own: every net that has a tree, in net order,
// adds each node's non-zero X and Y gradient onto the cell of the pin the
// axis is attributed to. It reads the adjoints that tm's last Evaluate left
// and is the oracle of the node slab, which must give the same bits.
func perNetFold(tm *Timer) (gx, gy []float64) {
	d := tm.G.D
	gx = make([]float64, len(d.Cells))
	gy = make([]float64, len(d.Cells))
	for i := range d.Nets {
		ni := int32(i)
		if !tm.Nets.Timed(ni) {
			continue
		}
		net := &d.Nets[ni]
		var tree rsmt.Tree
		var rc rctree.Tree
		tm.Nets.Steiner(tm.G, ni, &tree)
		tm.Nets.RC(ni, &rc)
		n := tree.NumNodes()
		gDelay := make([]float64, n)
		gImpSq := make([]float64, n)
		for k, pid := range net.Pins {
			gDelay[k] = tm.gDelay[pid]
			gImpSq[k] = tm.gImpulseSq[pid]
		}
		gr := new(rctree.Grad)
		gr.PreSize(n, make([]float64, 8*n))
		rc.BackwardInto(gr, gDelay, gImpSq, tm.gLoad[net.Driver])
		for j := 0; j < n; j++ {
			if gr.X[j] != 0 {
				gx[d.Pins[net.Pins[tree.XPin[j]]].Cell] += gr.X[j]
			}
			if gr.Y[j] != 0 {
				gy[d.Pins[net.Pins[tree.YPin[j]]].Cell] += gr.Y[j]
			}
		}
	}
	return gx, gy
}

// TestFig4SlabMatchesPerNetFold: the node slab's fold gives CellGradX/Y the
// per-net fold's bits over a first build, lazy refreshes, fences, and a net
// that a NaN coordinate leaves untimed until the coordinate is restored.
func TestFig4SlabMatchesPerNetFold(t *testing.T) {
	g := makeTestBed(t, 400, 43)
	d := g.D
	opts := DefaultOptions()
	opts.FencePeriod = 3
	tm := NewTimer(g, opts)
	const t1, t2 = 0.01, 0.0001
	nonZero := false
	check := func(when string) {
		t.Helper()
		tm.Evaluate(t1, t2)
		gx, gy := perNetFold(tm)
		if !sameBits(tm.CellGradX, gx) || !sameBits(tm.CellGradY, gy) {
			t.Fatalf("%s (evaluation %d): the slab's fold differs from the per-net fold", when, tm.evalCount)
		}
		for ci := range gx {
			nonZero = nonZero || gx[ci] != 0 || gy[ci] != 0
		}
	}

	check("first build")
	for step := 1; step <= 4; step++ { // lazy refreshes and one fence
		moveCells(d, step)
		check("after a move")
	}

	// A movable cell on a timed net of 3 or more pins: a NaN coordinate
	// disconnects that net's Steiner tree at the next fence.
	ci, ni := int32(-1), int32(-1)
	for c := range d.Cells {
		for _, pid := range d.Cells[c].Pins {
			if n := d.Pins[pid].Net; d.Cells[c].Movable() && n >= 0 && tm.Nets.Timed(n) && len(d.Nets[n].Pins) >= 3 {
				ci, ni = int32(c), n
			}
		}
		if ci >= 0 {
			break
		}
	}
	if ci < 0 {
		t.Fatal("no movable cell on a timed net of 3 or more pins")
	}
	pos := d.Cells[ci].Pos
	d.Cells[ci].Pos.X = math.NaN()
	for fence := false; !fence; {
		fence = tm.evalCount%opts.FencePeriod == 0
		check("at a NaN coordinate")
	}
	if tm.Nets.Timed(ni) {
		t.Fatalf("net %d kept its tree through a fence at a NaN pin", ni)
	}
	d.Cells[ci].Pos = pos
	for fence := false; !fence; {
		fence = tm.evalCount%opts.FencePeriod == 0
		check("after the coordinate is restored")
	}
	if !tm.Nets.Timed(ni) {
		t.Fatalf("net %d is still untimed after a fence at finite pins", ni)
	}
	if !nonZero {
		t.Fatal("every gradient was zero; the comparison tests nothing")
	}
}

// TestEvaluateValueOnlyReadsMovedCells: cells move by writing Cell.Pos, and
// the timer refills the design's pin-position column when it is entered. A
// fence through EvaluateValueOnly right after a move must give the bits of
// a new timer on a fresh Clone of the moved design, which fills a column of
// its own.
func TestEvaluateValueOnlyReadsMovedCells(t *testing.T) {
	g := makeTestBed(t, 400, 44)
	d := g.D
	opts := DefaultOptions()
	const t1, t2 = 0.01, 0.0001
	tm := NewTimer(g, opts)
	tm.Evaluate(t1, t2)
	moveCells(d, 1)
	tm.Reanchor()
	got := tm.EvaluateValueOnly(t1, t2)
	gc, err := timing.NewGraph(d.Clone(), g.Con)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewTimer(gc, opts)
	want := fresh.EvaluateValueOnly(t1, t2)
	if math.Float64bits(got) != math.Float64bits(want) || !sameBits(tm.AT, fresh.AT) || !sameBits(tm.Slew, fresh.Slew) {
		t.Fatalf("EvaluateValueOnly after a move = %v, on a fresh clone %v", got, want)
	}
}
