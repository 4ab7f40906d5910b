package legalize

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/geom"
	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
)

func TestLegalizeGenerated(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("lg", 800, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Legalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved == 0 {
		t.Fatal("nothing legalized")
	}
	if err := Check(d); err != nil {
		t.Fatalf("Check after Legalize: %v", err)
	}
}

func TestLegalizeClusteredCells(t *testing.T) {
	// All cells stacked at one spot (worst case for greedy legalizers).
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("clump", lib)
	b.SetDie(geom.NewRect(0, 0, 240, 240))
	b.AddRowsFilling()
	for i := 0; i < 200; i++ {
		b.AddCell(name(i), "INV_X1")
	}
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for ci := range d.Cells {
		d.Cells[ci].Pos = geom.Point{X: 120, Y: 120}
	}
	if _, err := Legalize(d); err != nil {
		t.Fatal(err)
	}
	if err := Check(d); err != nil {
		t.Fatal(err)
	}
}

func name(i int) string {
	return "c" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
}

func TestLegalizeRightCrowding(t *testing.T) {
	// Cells crowded at the right edge: the historical failure mode of a
	// cursor-based Tetris. Interval-based placement must succeed.
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("right", lib)
	b.SetDie(geom.NewRect(0, 0, 120, 120))
	b.AddRowsFilling()
	for i := 0; i < 150; i++ {
		b.AddCell(name(i), "INV_X1")
	}
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for ci := range d.Cells {
		d.Cells[ci].Pos = geom.Point{X: 110 + rng.Float64()*8, Y: rng.Float64() * 110}
	}
	if _, err := Legalize(d); err != nil {
		t.Fatal(err)
	}
	if err := Check(d); err != nil {
		t.Fatal(err)
	}
}

func TestLegalizeRespectsBlockages(t *testing.T) {
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("blk", lib)
	b.SetDie(geom.NewRect(0, 0, 240, 240))
	b.AddRowsFilling()
	b.AddFixedMacro("macro", geom.NewRect(60, 0, 180, 240))
	for i := 0; i < 100; i++ {
		b.AddCell(name(i), "INV_X1")
	}
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Movable() {
			c.Pos = geom.Point{X: rng.Float64() * 228, Y: rng.Float64() * 228}
		}
	}
	if _, err := Legalize(d); err != nil {
		t.Fatal(err)
	}
	if err := Check(d); err != nil {
		t.Fatal(err)
	}
	// No movable cell may overlap the macro.
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !c.Movable() {
			continue
		}
		if c.Pos.X+c.W > 60+1e-9 && c.Pos.X < 180-1e-9 {
			t.Fatalf("cell %s at %v overlaps the macro", c.Name, c.Pos)
		}
	}
}

func TestLegalizeFailsWhenFull(t *testing.T) {
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("full", lib)
	b.SetDie(geom.NewRect(0, 0, 24, 24)) // 2 rows × 24 sites
	b.AddRowsFilling()
	for i := 0; i < 60; i++ { // way more than fits
		b.AddCell(name(i), "INV_X1")
	}
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Legalize(d); err == nil {
		t.Fatal("overfull die legalized successfully")
	}
}

func TestLegalizeNoRows(t *testing.T) {
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("norows", lib)
	b.SetDie(geom.NewRect(0, 0, 100, 100))
	b.AddCell("c0", "INV_X1")
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Legalize(d); err == nil {
		t.Fatal("legalize without rows succeeded")
	}
}

func TestCheckDetectsOverlap(t *testing.T) {
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("ovl", lib)
	b.SetDie(geom.NewRect(0, 0, 120, 120))
	b.AddRowsFilling()
	b.AddCell("c1", "INV_X1")
	b.AddCell("c2", "INV_X1")
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d.Cells[0].Pos = geom.Point{X: 0, Y: 0}
	d.Cells[1].Pos = geom.Point{X: 1, Y: 0} // overlaps (width 3)
	if err := Check(d); err == nil {
		t.Fatal("overlap not detected")
	}
	d.Cells[1].Pos = geom.Point{X: 3, Y: 0}
	if err := Check(d); err != nil {
		t.Fatalf("abutting cells flagged: %v", err)
	}
	d.Cells[1].Pos = geom.Point{X: 3, Y: 5} // off-row
	if err := Check(d); err == nil {
		t.Fatal("off-row cell not detected")
	}
}

func TestDisplacementStatistics(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("disp", 500, 9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Legalize(d)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDisplacement <= 0 || res.MaxDisplacement < res.AvgDisplacement {
		t.Errorf("displacement stats: avg %v max %v", res.AvgDisplacement, res.MaxDisplacement)
	}
	if math.IsNaN(res.AvgDisplacement) {
		t.Error("NaN displacement")
	}
}
