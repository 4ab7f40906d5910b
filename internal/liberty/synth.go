package liberty

import (
	"fmt"
	"math"

	"dtgp/internal/geom"
)

// The synthetic library stands in for the proprietary ICCAD 2015 contest
// libraries. Its NLDM tables are sampled from a smooth analytic driver
// model, so bilinear interpolation, extrapolation, slew dependence and
// load dependence all behave like a real characterized library while
// remaining deterministic and license-free.

// RowHeight is the standard-cell row height in DBU for the synthetic
// library and all generated benchmarks.
const RowHeight = 12.0

// SiteWidth is the placement site width in DBU.
const SiteWidth = 1.0

// The synthetic library's interconnect and slew limit. They are
// calibrated so that a 100-DBU net adds roughly one gate delay, making
// placement genuinely timing-relevant.
const (
	wireResPerDBU = 0.010 // kΩ per DBU: 10 Ω
	wireCapPerDBU = 0.16  // fF per DBU
	maxTransition = 640   // ps, the cap on propagated slews
)

// slewIndex and loadIndex are the axes of every synthetic table. The
// tables share the two slices (nothing writes a table's axes), so a timer
// locates a query on them once for all the tables it evaluates there.
var (
	slewIndex = []float64{5, 10, 20, 40, 80, 160, 320}
	loadIndex = []float64{1, 2, 4, 8, 16, 32, 64}
)

// driverModel is the analytic model sampled into NLDM tables:
//
//	delay(s, l)  = d0 + rd·l + ks·s + knl·rd·l·s/(s+s½)
//	slew(s, l)   = t0 + 1.9·rd·l + kt·s
//
// The cross term makes the surface genuinely 2-D (so bilinear interpolation
// error and its gradient are non-trivial), while staying monotone in both
// arguments as real cells are.
type driverModel struct {
	d0, rd, ks, knl, t0, kt float64
}

func (m driverModel) delay(slew, load float64) float64 {
	return m.d0 + m.rd*load + m.ks*slew + m.knl*m.rd*load*slew/(slew+40)
}

func (m driverModel) slewOut(slew, load float64) float64 {
	return m.t0 + 1.9*m.rd*load + m.kt*slew
}

func (m driverModel) sampleDelay(scale float64) *LUT {
	return sample(func(s, l float64) float64 { return scale * m.delay(s, l) })
}

func (m driverModel) sampleSlew(scale float64) *LUT {
	return sample(func(s, l float64) float64 { return scale * m.slewOut(s, l) })
}

func sample(f func(s, l float64) float64) *LUT {
	vals := make([]float64, len(slewIndex)*len(loadIndex))
	for i, s := range slewIndex {
		for j, l := range loadIndex {
			vals[i*len(loadIndex)+j] = f(s, l)
		}
	}
	t, err := NewLUT(slewIndex, loadIndex, vals)
	if err != nil {
		panic(fmt.Sprintf("liberty: synthetic LUT: %v", err)) // impossible: indices are fixed
	}
	return t
}

// gateSpec declares one synthetic combinational cell.
type gateSpec struct {
	name   string
	inputs []string
	unate  Unateness
	// drive is the strength multiplier: rd scales as 1/drive, caps as drive.
	drive float64
	// intrinsic delay offset in ps.
	d0 float64
	// widthSites is the footprint in sites.
	widthSites int
}

// DefaultLibrary builds the synthetic standard-cell library used throughout
// the benchmark suite. It is deterministic: every call produces the
// identical library.
func DefaultLibrary() *Library {
	lib := &Library{
		Name:                 "dtgp_synth",
		WireResPerDBU:        wireResPerDBU,
		WireCapPerDBU:        wireCapPerDBU,
		DefaultMaxTransition: maxTransition,
	}

	gates := []gateSpec{
		{"INV_X1", []string{"A"}, NegativeUnate, 1, 8, 3},
		{"INV_X2", []string{"A"}, NegativeUnate, 2, 7, 4},
		{"INV_X4", []string{"A"}, NegativeUnate, 4, 6, 6},
		{"BUF_X1", []string{"A"}, PositiveUnate, 1, 16, 4},
		{"BUF_X2", []string{"A"}, PositiveUnate, 2, 14, 5},
		{"NAND2_X1", []string{"A", "B"}, NegativeUnate, 1, 12, 4},
		{"NAND2_X2", []string{"A", "B"}, NegativeUnate, 2, 11, 6},
		{"NOR2_X1", []string{"A", "B"}, NegativeUnate, 1, 14, 4},
		{"AND2_X1", []string{"A", "B"}, PositiveUnate, 1, 20, 5},
		{"OR2_X1", []string{"A", "B"}, PositiveUnate, 1, 22, 5},
		{"XOR2_X1", []string{"A", "B"}, NonUnate, 1, 26, 7},
		{"AOI21_X1", []string{"A", "B", "C"}, NegativeUnate, 1, 16, 6},
		{"OAI21_X1", []string{"A", "B", "C"}, NegativeUnate, 1, 17, 6},
		{"MAJ3_X1", []string{"A", "B", "C"}, PositiveUnate, 1, 28, 8},
	}
	for _, g := range gates {
		lib.Cells = append(lib.Cells, buildGate(g))
	}
	lib.Cells = append(lib.Cells, buildDFF("DFF_X1", 1))
	lib.Cells = append(lib.Cells, buildDFF("DFF_X2", 2))
	lib.BuildIndex()
	if err := lib.Validate(); err != nil {
		panic(fmt.Sprintf("liberty: synthetic library invalid: %v", err)) // impossible by construction
	}
	return lib
}

func buildGate(g gateSpec) Cell {
	w := float64(g.widthSites) * SiteWidth
	c := Cell{
		Name:   g.name,
		Width:  w,
		Height: RowHeight,
		Area:   w * RowHeight,
	}
	inCap := 1.5 * g.drive
	for i, name := range g.inputs {
		c.Pins = append(c.Pins, Pin{
			Name: name,
			Dir:  DirInput,
			Cap:  inCap,
			Offset: geom.Point{
				X: w * float64(i+1) / float64(len(g.inputs)+2),
				Y: RowHeight * 0.25,
			},
		})
	}
	c.Pins = append(c.Pins, Pin{
		Name:   "Z",
		Dir:    DirOutput,
		MaxCap: 60 * g.drive,
		Offset: geom.Point{X: w * 0.85, Y: RowHeight * 0.75},
	})
	out := len(c.Pins) - 1

	m := driverModel{
		d0:  g.d0,
		rd:  2.4 / g.drive,
		ks:  0.10,
		knl: 0.35,
		t0:  6,
		kt:  0.12,
	}
	for i := range g.inputs {
		// Later inputs are slightly slower, as in real multi-input gates.
		scale := 1 + 0.06*float64(i)
		c.Arcs = append(c.Arcs, TimingArc{
			From:           i,
			To:             out,
			Kind:           ArcCombinational,
			Unate:          g.unate,
			CellRise:       m.sampleDelay(scale),
			CellFall:       m.sampleDelay(scale * 0.92),
			RiseTransition: m.sampleSlew(scale),
			FallTransition: m.sampleSlew(scale * 0.90),
		})
	}
	c.buildIndex()
	return c
}

func buildDFF(name string, drive float64) Cell {
	w := 14.0 * SiteWidth * math.Sqrt(drive)
	c := Cell{
		Name:         name,
		Width:        w,
		Height:       RowHeight,
		Area:         w * RowHeight,
		IsSequential: true,
	}
	c.Pins = []Pin{
		{Name: "D", Dir: DirInput, Cap: 1.2 * drive,
			Offset: geom.Point{X: w * 0.15, Y: RowHeight * 0.25}},
		{Name: "CK", Dir: DirInput, Cap: 1.0 * drive, IsClock: true,
			Offset: geom.Point{X: w * 0.50, Y: RowHeight * 0.10}},
		{Name: "Q", Dir: DirOutput, MaxCap: 60 * drive,
			Offset: geom.Point{X: w * 0.85, Y: RowHeight * 0.75}},
	}
	const (
		pinD  = 0
		pinCK = 1
		pinQ  = 2
	)
	m := driverModel{d0: 35, rd: 2.4 / drive, ks: 0.08, knl: 0.30, t0: 8, kt: 0.10}
	c.Arcs = append(c.Arcs, TimingArc{
		From:           pinCK,
		To:             pinQ,
		Kind:           ArcClockToQ,
		Unate:          NonUnate,
		CellRise:       m.sampleDelay(1),
		CellFall:       m.sampleDelay(0.95),
		RiseTransition: m.sampleSlew(1),
		FallTransition: m.sampleSlew(0.93),
	})
	// Setup/hold: index_1 = clock slew, index_2 = data slew.
	setup := func(cs, ds float64) float64 { return 28 + 0.25*cs + 0.45*ds }
	hold := func(cs, ds float64) float64 { return 4 + 0.05*cs - 0.10*ds }
	c.Arcs = append(c.Arcs, TimingArc{
		From:           pinCK,
		To:             pinD,
		Kind:           ArcSetup,
		Unate:          NonUnate,
		RiseConstraint: sample(setup),
		FallConstraint: sample(func(cs, ds float64) float64 { return setup(cs, ds) * 1.05 }),
	})
	c.Arcs = append(c.Arcs, TimingArc{
		From:           pinCK,
		To:             pinD,
		Kind:           ArcHold,
		Unate:          NonUnate,
		RiseConstraint: sample(hold),
		FallConstraint: sample(func(cs, ds float64) float64 { return hold(cs, ds) * 1.1 }),
	})
	c.buildIndex()
	return c
}
