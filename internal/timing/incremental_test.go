package timing

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/netlist"
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
		for moved := 0; moved < 5; {
			ci := rng.Intn(len(d.Cells))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 40
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 40
			moved++
		}
		inc.MoveCells(nil)
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
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			d.Cells[ci].Pos.X *= 1.3
		}
	}
	inc.MoveCells(nil)
	full := Analyze(g)
	if math.Abs(inc.WNS-full.WNS) > 1e-4 {
		t.Errorf("WNS %v vs full %v", inc.WNS, full.WNS)
	}
}

// TestIncrementalNoMoveNoChange: an update after no cell moved changes
// nothing.
func TestIncrementalNoMoveNoChange(t *testing.T) {
	_, inc := incBed(t, 200, 54)
	w, tn := inc.WNS, inc.TNS
	inc.MoveCells(nil)
	if inc.WNS != w || inc.TNS != tn {
		t.Error("no-op move changed metrics")
	}
}

// TestIncrementalRATMatchesFull: the maintained required times, per-pin
// slacks and WNS/TNS must be bit-identical to a from-scratch analysis over
// the same interconnect state after every move batch — the contract the
// incremental net-weighting path in the placer relies on.
func TestIncrementalRATMatchesFull(t *testing.T) {
	g, inc := incBed(t, 400, 56)
	d := g.D
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 8; round++ {
		for moved := 0; moved < 6; {
			ci := rng.Intn(len(d.Cells))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 50
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 50
			moved++
		}
		inc.MoveCells(nil)
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

// TestMoveCellsAllocFree: MoveCells re-extracts every net in scratch its
// engine owns, so a warm engine allocates nothing even when garbage
// collections run between calls (they would empty any pooled scratch). 40
// cells of a 400-cell bed move back and forth between two placements, so
// every rebuilt tree fits buffers an earlier build grew.
func TestMoveCellsAllocFree(t *testing.T) {
	g, inc := incBed(t, 400, 55)
	d := g.D
	x0, y0 := d.Positions()
	moveSome(d, 40)
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
		inc.MoveCells(nil)
	}
	for i := 0; i < 4; i++ {
		move()
	}
	if allocs := testing.AllocsPerRun(10, move); allocs != 0 {
		t.Errorf("MoveCells allocated %v objects/op in steady state, want 0", allocs)
	}
}

// TestMoveCellsRebuildsEveryNet: MoveCells brings the engine up to the
// current placement whichever cells moved, so after 40 cells move it equals
// a from-scratch analysis bit for bit even when it is told of none.
func TestMoveCellsRebuildsEveryNet(t *testing.T) {
	g, inc := incBed(t, 400, 59)
	moveSome(g.D, 40)
	inc.MoveCells(nil)
	sameAsAnalyze(t, "after 40 cells moved", &inc.LateState, Analyze(g))
}

// moveSome shifts the first n movable cells of d by a few DBU each.
func moveSome(d *netlist.Design, n int) {
	for ci := range d.Cells {
		if n == 0 {
			return
		}
		if d.Cells[ci].Movable() {
			d.Cells[ci].Pos.X += float64(5 + n%7)
			d.Cells[ci].Pos.Y -= float64(3 + n%5)
			n--
		}
	}
}

// TestMoveCellsNonFiniteRecovers: a cell moved to a non-finite position
// disconnects the Steiner tree of each of its nets with 3 or more pins, so
// those nets lose their trees. MoveCells must survive that: right after the
// move, and again once the cell is back and every such net is timed again,
// the maintained state equals a from-scratch analysis bit for bit.
func TestMoveCellsNonFiniteRecovers(t *testing.T) {
	g, inc := incBed(t, 400, 58)
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
	inc.MoveCells(nil)
	if inc.Nets.Timed(ni) {
		t.Fatalf("net %d kept its Steiner tree at a NaN pin", ni)
	}
	sameAsAnalyze(t, "at the NaN position", &inc.LateState, Analyze(g))
	d.Cells[ci].Pos = pos
	inc.MoveCells(nil)
	if !inc.Nets.Timed(ni) {
		t.Fatalf("net %d is still untimed after its pins are finite again", ni)
	}
	sameAsAnalyze(t, "after the round trip", &inc.LateState, Analyze(g))
}

// TestAnalysesReadMovedCells: cells move by writing Cell.Pos, as the
// legalizer moves them, and the design's pin-position column is refilled
// only when a bulk reader is entered. After each move, Analyze,
// NewIncremental and MoveCells must each equal, bit for bit, an analysis
// of a fresh Clone of the moved design, which fills a column of its own.
func TestAnalysesReadMovedCells(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("moved", 400, 60))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *Result {
		gc, err := NewGraph(d.Clone(), con)
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(gc)
	}
	Analyze(g)
	moveSome(d, 60)
	sameAsAnalyze(t, "Analyze after a move", &Analyze(g).LateState, fresh())
	moveSome(d, 40)
	inc := NewIncremental(g)
	sameAsAnalyze(t, "NewIncremental after a move", &inc.LateState, fresh())
	moveSome(d, 20)
	inc.MoveCells(nil)
	sameAsAnalyze(t, "MoveCells after a move", &inc.LateState, fresh())
}

// sameAsAnalyze fails the test unless got's reachability, arrivals, slews,
// required times, WNS and TNS equal full's bit for bit.
func sameAsAnalyze(t *testing.T, when string, got *LateState, full *Result) {
	t.Helper()
	diffs := 0
	for i := range full.ATLate {
		if got.Valid[i] != full.Valid[i] ||
			math.Float64bits(got.ATLate[i]) != math.Float64bits(full.ATLate[i]) ||
			math.Float64bits(got.SlewLate[i]) != math.Float64bits(full.SlewLate[i]) ||
			math.Float64bits(got.RATLate[i]) != math.Float64bits(full.RATLate[i]) {
			diffs++
		}
	}
	if diffs > 0 {
		t.Errorf("%s: %d of %d timing nodes differ from a from-scratch analysis", when, diffs, len(full.ATLate))
	}
	if math.Float64bits(got.WNS) != math.Float64bits(full.WNS) || math.Float64bits(got.TNS) != math.Float64bits(full.TNS) {
		t.Errorf("%s: WNS/TNS %v/%v, from scratch %v/%v", when, got.WNS, got.TNS, full.WNS, full.TNS)
	}
}
