package netlist

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dtgp/internal/geom"
	"dtgp/internal/liberty"
)

func testLib() *liberty.Library {
	return liberty.DefaultLibrary()
}

// buildToy: in0 → INV g0 → DFF ff0 → out0, plus clock port.
func buildToy(t *testing.T) *Design {
	t.Helper()
	b := NewBuilder("toy", testLib())
	b.SetDie(geom.NewRect(0, 0, 600, 600))
	b.AddRowsFilling()
	clk := b.AddInputPort("clk", geom.Point{X: 0, Y: 300})
	in0 := b.AddInputPort("in0", geom.Point{X: 0, Y: 100})
	out0 := b.AddOutputPort("out0", geom.Point{X: 600, Y: 100})
	g0 := b.AddCell("g0", "INV_X1")
	ff0 := b.AddCell("ff0", "DFF_X1")

	nclk := b.AddNet("nclk")
	b.Connect(nclk, clk, "")
	b.Connect(nclk, ff0, "CK")
	nin := b.AddNet("nin")
	b.Connect(nin, in0, "")
	b.Connect(nin, g0, "A")
	nmid := b.AddNet("nmid")
	b.Connect(nmid, g0, "Z")
	b.Connect(nmid, ff0, "D")
	nout := b.AddNet("nout")
	b.Connect(nout, ff0, "Q")
	b.Connect(nout, out0, "")

	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuilderToy(t *testing.T) {
	d := buildToy(t)
	s := d.Stats()
	if s.Cells != 5 {
		t.Errorf("Stats.Cells = %d, want 5", s.Cells)
	}
	if s.Movable != 2 {
		t.Errorf("Stats.Movable = %d, want 2", s.Movable)
	}
	if s.Nets != 4 {
		t.Errorf("Stats.Nets = %d, want 4", s.Nets)
	}
	if d.CellByName("ff0") < 0 || d.NetByName("nmid") < 0 {
		t.Error("name lookups failed")
	}
	if d.CellByName("zzz") != -1 || d.NetByName("zzz") != -1 {
		t.Error("bogus lookups should return -1")
	}
	// Driver bookkeeping.
	nmid := d.NetByName("nmid")
	if d.Nets[nmid].Driver < 0 || d.Pins[d.Nets[nmid].Driver].Dir != PinOutput {
		t.Error("nmid driver wrong")
	}
	// Sequential classification.
	if d.Cells[d.CellByName("ff0")].Class != ClassSeq {
		t.Error("ff0 not classified sequential")
	}
	if d.Cells[d.CellByName("g0")].Class != ClassComb {
		t.Error("g0 not classified combinational")
	}
}

func TestPinPosTracksCell(t *testing.T) {
	d := buildToy(t)
	g0 := d.CellByName("g0")
	d.Cells[g0].Pos = geom.Point{X: 100, Y: 200}
	pid := d.Cells[g0].Pins[0]
	want := geom.Point{X: 100 + d.Pins[pid].Offset.X, Y: 200 + d.Pins[pid].Offset.Y}
	if got := d.PinPos(pid); got != want {
		t.Errorf("PinPos = %v, want %v", got, want)
	}
}

func TestHPWL(t *testing.T) {
	d := buildToy(t)
	// Move cells to known positions; check one net by hand.
	g0 := d.CellByName("g0")
	ff0 := d.CellByName("ff0")
	d.Cells[g0].Pos = geom.Point{X: 100, Y: 100}
	d.Cells[ff0].Pos = geom.Point{X: 300, Y: 400}

	nmid := d.NetByName("nmid")
	zPin := d.Nets[nmid].Driver
	var dPin int32 = -1
	for _, p := range d.Nets[nmid].Pins {
		if p != zPin {
			dPin = p
		}
	}
	zp, dp := d.PinPos(zPin), d.PinPos(dPin)
	want := math.Abs(zp.X-dp.X) + math.Abs(zp.Y-dp.Y)
	if got := d.NetHPWL(nmid); math.Abs(got-want) > 1e-9 {
		t.Errorf("NetHPWL = %v, want %v", got, want)
	}
	total := 0.0
	for ni := range d.Nets {
		total += d.NetHPWL(int32(ni))
	}
	if got := d.HPWL(); math.Abs(got-total) > 1e-9 {
		t.Errorf("HPWL = %v, want %v", got, total)
	}
}

func TestStats(t *testing.T) {
	d := buildToy(t)
	s := d.Stats()
	if s.Cells != 5 || s.Nets != 4 || s.Sequential != 1 || s.Ports != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if s.Pins != 8 { // 3 port pins + 2 (INV) + 3 (DFF)
		t.Errorf("Pins = %d, want 8", s.Pins)
	}
	if s.MaxNetDegree != 2 {
		t.Errorf("MaxNetDegree = %d", s.MaxNetDegree)
	}
	if s.Utilization <= 0 || s.Utilization > 1 {
		t.Errorf("Utilization = %v", s.Utilization)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := buildToy(t)
	if err := d.Validate(); err != nil {
		t.Fatalf("valid design rejected: %v", err)
	}
	d.Pins[0].Net = 99
	if err := d.Validate(); err == nil {
		t.Error("out-of-range net reference not caught")
	}

	d = buildToy(t)
	d.Nets[0].Pins = append(d.Nets[0].Pins, 999)
	if err := d.Validate(); err == nil {
		t.Error("out-of-range pin reference not caught")
	}

	d = buildToy(t)
	// Two drivers on one net.
	n := d.NetByName("nmid")
	q := d.Nets[d.NetByName("nout")].Driver
	d.Nets[n].Pins = append(d.Nets[n].Pins, q)
	d.Pins[q].Net = n
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "driver") {
		t.Errorf("multi-driver not caught: %v", err)
	}
}

// TestValidateCatchesDuplicateListing: every pin on a net must be listed on
// it exactly once. A net that lists one pin twice and omits another is
// rejected, and so is one that lists a pin twice and omits none.
func TestValidateCatchesDuplicateListing(t *testing.T) {
	d := buildToy(t)
	n := d.NetByName("nmid")
	drv, sink := d.Nets[n].Pins[0], d.Nets[n].Pins[1]
	d.Nets[n].Pins = []int32{sink, sink}
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("pin %d listed 2 times", sink)) &&
		!strings.Contains(err.Error(), fmt.Sprintf("pin %d not listed", drv)) {
		t.Errorf("a net listing pin %d twice and omitting pin %d: %v", sink, drv, err)
	}

	d = buildToy(t)
	d.Nets[n].Pins = []int32{drv, sink, sink}
	want := fmt.Sprintf("pin %d listed 2 times on its net %q", sink, "nmid")
	if err := d.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a net listing pin %d twice: %v, want %q", sink, err, want)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad", testLib())
	if ci := b.AddCell("x", "NO_SUCH"); ci != -1 {
		t.Error("unknown master accepted")
	}
	if _, err := b.Finish(); err == nil {
		t.Error("error not propagated")
	}

	b = NewBuilder("bad2", testLib())
	c := b.AddCell("g", "INV_X1")
	n := b.AddNet("n")
	b.Connect(n, c, "NOPE")
	if _, err := b.Finish(); err == nil {
		t.Error("unknown pin accepted")
	}

	b = NewBuilder("bad3", testLib())
	c1 := b.AddCell("g1", "INV_X1")
	c2 := b.AddCell("g2", "INV_X1")
	n = b.AddNet("n")
	b.Connect(n, c1, "Z")
	b.Connect(n, c2, "Z")
	if _, err := b.Finish(); err == nil {
		t.Error("double driver accepted")
	}

	b = NewBuilder("bad4", testLib())
	c1 = b.AddCell("g1", "INV_X1")
	n1 := b.AddNet("n1")
	n2 := b.AddNet("n2")
	b.Connect(n1, c1, "A")
	b.Connect(n2, c1, "A")
	if _, err := b.Finish(); err == nil {
		t.Error("pin on two nets accepted")
	}
}

// TestPinPositionsFill: the pin-position column holds PinPos's bits as of
// the last fill, moves only when it is refilled, and is not shared with a
// clone, whose first fill makes a column of its own.
func TestPinPositionsFill(t *testing.T) {
	d := buildToy(t)
	if d.PinPositions() != nil {
		t.Fatal("a new design has a pin-position column before its first fill")
	}
	g0 := d.CellByName("g0")
	d.Cells[g0].Pos = geom.Point{X: 100.1, Y: 200.3}
	d.FillPinPositions()
	same := func(d *Design) bool {
		col := d.PinPositions()
		for p := range d.Pins {
			want := d.PinPos(int32(p))
			if math.Float64bits(col[p].X) != math.Float64bits(want.X) ||
				math.Float64bits(col[p].Y) != math.Float64bits(want.Y) {
				return false
			}
		}
		return len(col) == len(d.Pins)
	}
	if !same(d) {
		t.Fatal("the column differs from PinPos after a fill")
	}
	c := d.Clone()
	if c.PinPositions() != nil {
		t.Fatal("Clone copied the pin-position column")
	}
	c.Cells[g0].Pos.X += 50
	c.FillPinPositions()
	if !same(c) || !same(d) {
		t.Fatal("filling a clone's column changed the original's, or the clone's differs from PinPos")
	}
	d.Cells[g0].Pos.Y += 7
	if same(d) {
		t.Fatal("the column followed a move before it was refilled")
	}
	d.FillPinPositions()
	if !same(d) {
		t.Fatal("the column differs from PinPos after a refill")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := buildToy(t)
	c := d.Clone()
	c.Cells[0].Pos = geom.Point{X: 999, Y: 999}
	c.Nets[0].Weight = 42
	if d.Cells[0].Pos == c.Cells[0].Pos {
		t.Error("Clone shares cell storage")
	}
	if d.Nets[0].Weight == 42 {
		t.Error("Clone shares net storage")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestPositionsRoundTrip(t *testing.T) {
	d := buildToy(t)
	x, y := d.Positions()
	for i := range x {
		x[i] += 5
		y[i] -= 3
	}
	d.SetPositions(x, y)
	x2, y2 := d.Positions()
	for i := range x {
		if x2[i] != x[i] || y2[i] != y[i] {
			t.Fatal("SetPositions/Positions mismatch")
		}
	}
}

func TestRowsFillDie(t *testing.T) {
	d := buildToy(t)
	if len(d.Rows) == 0 {
		t.Fatal("no rows")
	}
	wantRows := int(d.Die.H() / liberty.RowHeight)
	if len(d.Rows) != wantRows {
		t.Errorf("rows = %d, want %d", len(d.Rows), wantRows)
	}
	for _, r := range d.Rows {
		if r.Right() > d.Die.Hi.X+1e-9 {
			t.Error("row exceeds die")
		}
	}
}

func TestFixedMacro(t *testing.T) {
	b := NewBuilder("m", testLib())
	b.SetDie(geom.NewRect(0, 0, 500, 500))
	b.AddFixedMacro("blk", geom.NewRect(100, 100, 200, 300))
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Cells[0].Fixed() {
		t.Error("macro not fixed")
	}
	if got := d.FixedArea(); math.Abs(got-100*200) > 1e-9 {
		t.Errorf("FixedArea = %v", got)
	}
}
