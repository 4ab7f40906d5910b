package timing

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dtgp/internal/gen"
)

func incBed(t *testing.T, cells int, seed int64) (*Graph, *Incremental) {
	t.Helper()
	d, con, err := gen.Generate(gen.DefaultParams("inc", cells, seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	// Tighten the clock so WNS/TNS are non-trivial.
	r := Analyze(g)
	con.Period = 0.8 * r.CriticalDelay()
	g, err = NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	return g, NewIncremental(g)
}

func TestIncrementalMatchesFullInitially(t *testing.T) {
	g, inc := incBed(t, 400, 51)
	full := Analyze(g)
	if math.Abs(inc.WNS-full.WNS) > 1e-6 {
		t.Errorf("initial WNS %v vs full %v", inc.WNS, full.WNS)
	}
	if math.Abs(inc.TNS-full.TNS) > 1e-6 {
		t.Errorf("initial TNS %v vs full %v", inc.TNS, full.TNS)
	}
	for i := range inc.ATLate {
		if inc.Valid[i] != full.Valid[i] {
			t.Fatalf("validity mismatch at %d", i)
		}
		if inc.Valid[i] && math.Abs(inc.ATLate[i]-full.ATLate[i]) > 1e-6 {
			t.Fatalf("AT mismatch at %d: %v vs %v", i, inc.ATLate[i], full.ATLate[i])
		}
	}
}

// TestIncrementalTracksMoves: after random cell moves, incremental metrics
// must match a from-scratch analysis.
func TestIncrementalTracksMoves(t *testing.T) {
	g, inc := incBed(t, 400, 52)
	d := g.D
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 10; round++ {
		// Move a random handful of movable cells.
		var moved []int32
		for len(moved) < 5 {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 40
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 40
			moved = append(moved, ci)
		}
		inc.MoveCells(moved)
		full := Analyze(g)
		if math.Abs(inc.WNS-full.WNS) > 1e-4 {
			t.Fatalf("round %d: WNS %v vs full %v", round, inc.WNS, full.WNS)
		}
		if relErr(inc.TNS, full.TNS) > 1e-6 {
			t.Fatalf("round %d: TNS %v vs full %v", round, inc.TNS, full.TNS)
		}
	}
}

func relErr(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1e-9 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestIncrementalMoveAll: moving every cell must still converge to the full
// answer (degenerates to a full re-analysis).
func TestIncrementalMoveAll(t *testing.T) {
	g, inc := incBed(t, 300, 53)
	d := g.D
	var all []int32
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			d.Cells[ci].Pos.X *= 1.3
			all = append(all, int32(ci))
		}
	}
	inc.MoveCells(all)
	full := Analyze(g)
	if math.Abs(inc.WNS-full.WNS) > 1e-4 {
		t.Errorf("WNS %v vs full %v", inc.WNS, full.WNS)
	}
}

// TestIncrementalNoMoveNoChange: an empty move set changes nothing.
func TestIncrementalNoMoveNoChange(t *testing.T) {
	_, inc := incBed(t, 200, 54)
	w, tn := inc.WNS, inc.TNS
	inc.MoveCells(nil)
	if inc.WNS != w || inc.TNS != tn {
		t.Error("no-op move changed metrics")
	}
}

// TestIncrementalRATMatchesFull: with Epsilon 0 the maintained required
// times, per-pin slacks and WNS/TNS must be bit-identical to a from-scratch
// analysis over the same interconnect state after every move batch — the
// contract the incremental net-weighting path in the placer relies on.
func TestIncrementalRATMatchesFull(t *testing.T) {
	g, inc := incBed(t, 400, 56)
	inc.Epsilon = 0
	d := g.D
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 8; round++ {
		var moved []int32
		for len(moved) < 6 {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 50
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 50
			moved = append(moved, ci)
		}
		inc.MoveCells(moved)
		full := AnalyzeWithNets(g, inc.Nets)
		for i := range inc.RATLate {
			if inc.ATLate[i] != full.ATLate[i] && inc.Valid[i] {
				t.Fatalf("round %d: AT mismatch at %d: %v vs %v", round, i, inc.ATLate[i], full.ATLate[i])
			}
			if inc.RATLate[i] != full.RATLate[i] && !(math.IsInf(inc.RATLate[i], 1) && math.IsInf(full.RATLate[i], 1)) {
				t.Fatalf("round %d: RAT mismatch at %d: %v vs %v", round, i, inc.RATLate[i], full.RATLate[i])
			}
		}
		for pi := range d.Pins {
			for tr := Rise; tr <= Fall; tr++ {
				si, sf := inc.PinSlack(int32(pi), tr), full.PinSlack(int32(pi), tr)
				if si != sf && !(math.IsInf(si, 1) && math.IsInf(sf, 1)) {
					t.Fatalf("round %d: PinSlack mismatch at pin %d tr %d: %v vs %v", round, pi, tr, si, sf)
				}
			}
		}
		if inc.WNS != full.WNS || inc.TNS != full.TNS {
			t.Fatalf("round %d: metrics mismatch: WNS %v vs %v, TNS %v vs %v",
				round, inc.WNS, full.WNS, inc.TNS, full.TNS)
		}
	}
}

// TestIncrementalConeIsSmall: moving one cell in a large design should
// re-evaluate far fewer pins than the design holds (sanity on the worklist
// mechanics, via a proxy: results stay exact while the move set is tiny).
func TestIncrementalConeIsSmall(t *testing.T) {
	g, inc := incBed(t, 1500, 55)
	d := g.D
	// One movable cell, small nudge.
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			d.Cells[ci].Pos.X += 3
			inc.MoveCells([]int32{int32(ci)})
			break
		}
	}
	full := Analyze(g)
	if math.Abs(inc.WNS-full.WNS) > 1e-4 {
		t.Errorf("WNS %v vs full %v", inc.WNS, full.WNS)
	}
}

// TestIncrementalEpsilonDriftBounded: with a positive Epsilon the engine
// deliberately stops propagating sub-threshold AT/slew/RAT changes, so the
// maintained state may drift from a from-scratch analysis — but the drift
// must stay bounded. Each suppressed propagation hides at most Epsilon of
// change at one pin, so along any path the accumulated arrival error is
// bounded by Epsilon per level; slews feed delay LUTs whose slopes are
// moderate, covered by the safety factor. The bound must hold at every pin
// and on WNS/TNS after a long sequence of small-move batches (the placer's
// steady state, where Epsilon earns its keep).
func TestIncrementalEpsilonDriftBounded(t *testing.T) {
	g, inc := incBed(t, 400, 57)
	const eps = 0.5 // ps; well above the 1e-6 default
	inc.Epsilon = eps
	d := g.D
	maxLevel := int32(0)
	for _, l := range g.Level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	bound := eps * float64(maxLevel+1) * 4 // 4x safety for LUT slope amplification
	rng := rand.New(rand.NewSource(3))
	maxPinDrift, maxWNSDrift := 0.0, 0.0
	for round := 0; round < 20; round++ {
		var moved []int32
		for len(moved) < 8 {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 5
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 5
			moved = append(moved, ci)
		}
		inc.MoveCells(moved)
		full := AnalyzeWithNets(g, inc.Nets)
		for i := range inc.ATLate {
			if !inc.Valid[i] || !full.Valid[i] {
				continue
			}
			if dr := math.Abs(inc.ATLate[i] - full.ATLate[i]); dr > maxPinDrift {
				maxPinDrift = dr
			}
		}
		if dr := math.Abs(inc.WNS - full.WNS); dr > maxWNSDrift {
			maxWNSDrift = dr
		}
		if maxPinDrift > bound {
			t.Fatalf("round %d: pin AT drift %v exceeds bound %v (maxLevel %d)",
				round, maxPinDrift, bound, maxLevel)
		}
		if maxWNSDrift > bound {
			t.Fatalf("round %d: WNS drift %v exceeds bound %v", round, maxWNSDrift, bound)
		}
	}
	t.Logf("eps=%v maxLevel=%d bound=%v: max pin drift %v, max WNS drift %v",
		eps, maxLevel, bound, maxPinDrift, maxWNSDrift)
}

// TestMoveCellsAllocFree: MoveCells re-extracts the nets of the moved cells
// in scratch its engine owns, so a warm engine allocates nothing even when
// garbage collections run between calls (they would empty any pooled
// scratch). 40 cells of a 400-cell bed move back and forth between two
// placements, so every rebuilt tree fits buffers an earlier build grew.
func TestMoveCellsAllocFree(t *testing.T) {
	g, inc := incBed(t, 400, 55)
	d := g.D
	var cells []int32
	for ci := range d.Cells {
		if d.Cells[ci].Movable() && len(cells) < 40 {
			cells = append(cells, int32(ci))
		}
	}
	x0, y0 := d.Positions()
	for k, ci := range cells {
		d.Cells[ci].Pos.X += float64(5 + k%7)
		d.Cells[ci].Pos.Y -= float64(3 + k%5)
	}
	x1, y1 := d.Positions()
	flip := false
	move := func() {
		runtime.GC()
		runtime.GC()
		if flip = !flip; flip {
			d.SetPositions(x0, y0)
		} else {
			d.SetPositions(x1, y1)
		}
		inc.MoveCells(cells)
	}
	for i := 0; i < 4; i++ {
		move()
	}
	if allocs := testing.AllocsPerRun(10, move); allocs != 0 {
		t.Errorf("MoveCells allocated %v objects/op in steady state, want 0", allocs)
	}
}

// TestMoveCellsNonFiniteRecovers: a cell moved to a non-finite position
// disconnects the Steiner tree of each of its nets with 3 or more pins, so
// those nets lose their trees. MoveCells must survive that, and once the
// cell is back every such net must be timed again: with Epsilon 0 the
// maintained state then equals a from-scratch analysis bit for bit.
func TestMoveCellsNonFiniteRecovers(t *testing.T) {
	g, inc := incBed(t, 400, 58)
	inc.Epsilon = 0
	d := g.D
	ci, ni := int32(-1), int32(-1)
	for c := range d.Cells {
		if !d.Cells[c].Movable() {
			continue
		}
		for _, pid := range d.Cells[c].Pins {
			if n := d.Pins[pid].Net; n >= 0 && !g.IsClockNet[n] && len(d.Nets[n].Pins) >= 3 {
				ci, ni = int32(c), n
			}
		}
		if ci >= 0 {
			break
		}
	}
	if ci < 0 {
		t.Fatal("no movable cell on a net of 3 or more pins")
	}
	pos := d.Cells[ci].Pos
	d.Cells[ci].Pos.X = math.NaN()
	inc.MoveCells([]int32{ci})
	if inc.Nets[ni].Tree != nil {
		t.Fatalf("net %d kept its Steiner tree at a NaN pin", ni)
	}
	d.Cells[ci].Pos = pos
	inc.MoveCells([]int32{ci})
	if inc.Nets[ni].Tree == nil {
		t.Fatalf("net %d is still untimed after its pins are finite again", ni)
	}
	full := Analyze(g)
	diffs := 0
	for i := range full.ATLate {
		if inc.Valid[i] != full.Valid[i] ||
			math.Float64bits(inc.ATLate[i]) != math.Float64bits(full.ATLate[i]) ||
			math.Float64bits(inc.SlewLate[i]) != math.Float64bits(full.SlewLate[i]) {
			diffs++
		}
	}
	if diffs > 0 {
		t.Errorf("%d of %d timing nodes differ from a from-scratch analysis after the round trip", diffs, len(full.ATLate))
	}
}
