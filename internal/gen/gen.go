// Package gen synthesises deterministic benchmark designs that stand in for
// the proprietary ICCAD 2015 superblue suite. Generated circuits are
// register-bounded DAGs of library gates with a realistic net-degree
// distribution (mostly 2–4 pin nets plus a tail of high-fanout control
// nets), a single ideal clock, primary IO on the die boundary, and an SDC
// file (clock period, IO delays, port loads).
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"dtgp/internal/geom"
	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
	"dtgp/internal/sdc"
)

// Params control circuit synthesis.
type Params struct {
	Name string
	Seed int64
	// NumCells is the target movable cell count (gates + registers).
	NumCells int
	// SeqFraction of cells are registers.
	SeqFraction float64 //dtgp:allow(unturned) TestSequentialFraction sets it
	// NumInputs / NumOutputs primary IO counts.
	NumInputs, NumOutputs int
	// ClockPeriod in ps.
	ClockPeriod float64 //dtgp:allow(unturned) TestPeriodOverride sets it
	// Utilization is movable area / free die area.
	Utilization float64 //dtgp:allow(unturned) TestUtilizationTarget sets it
	// HighFanoutNets is the number of control-style nets with large
	// fanout.
	HighFanoutNets int
	// LocalityWindow biases input selection toward recently created
	// signals, controlling logic depth (smaller → deeper).
	LocalityWindow int
}

// DefaultParams returns a mid-size configuration.
func DefaultParams(name string, cells int, seed int64) Params {
	return Params{
		Name:           name,
		Seed:           seed,
		NumCells:       cells,
		SeqFraction:    0.14,
		NumInputs:      max(8, cells/100),
		NumOutputs:     max(8, cells/100),
		ClockPeriod:    0, // auto: derived from expected depth below
		Utilization:    0.70,
		HighFanoutNets: max(2, cells/800),
		LocalityWindow: max(24, cells/40),
	}
}

// Generate synthesises a design and its constraints.
func Generate(p Params) (*netlist.Design, *sdc.Constraints, error) {
	if p.NumCells < 4 {
		return nil, nil, fmt.Errorf("gen: NumCells %d too small", p.NumCells)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder(p.Name, lib)

	numFF := int(float64(p.NumCells) * p.SeqFraction)
	if numFF < 1 {
		numFF = 1
	}
	numGates := p.NumCells - numFF

	gateNames := []string{
		"INV_X1", "INV_X2", "INV_X4", "BUF_X1", "BUF_X2",
		"NAND2_X1", "NAND2_X2", "NOR2_X1", "AND2_X1", "OR2_X1",
		"XOR2_X1", "AOI21_X1", "OAI21_X1", "MAJ3_X1",
	}
	gateWeights := []float64{
		10, 5, 3, 6, 3,
		14, 6, 10, 10, 10,
		6, 7, 7, 3,
	}
	wsum := 0.0
	for _, w := range gateWeights {
		wsum += w
	}
	pickGate := func() string {
		r := rng.Float64() * wsum
		for i, w := range gateWeights {
			if r < w {
				return gateNames[i]
			}
			r -= w
		}
		return gateNames[len(gateNames)-1]
	}

	// A signal is a driven net awaiting consumers.
	type signal struct {
		net    int32
		fanout int
		isHub  bool
	}
	var signals []signal

	// Die sizing: estimate total area, derive a square die.
	lc := func(name string) *liberty.Cell { return &lib.Cells[lib.CellByName(name)] }
	avgGateArea := 0.0
	for i, n := range gateNames {
		avgGateArea += gateWeights[i] / wsum * lc(n).Area
	}
	totalArea := float64(numGates)*avgGateArea + float64(numFF)*lc("DFF_X1").Area
	util := p.Utilization
	if util <= 0 || util >= 1 {
		util = 0.70
	}
	side := math.Sqrt(totalArea / util)
	side = math.Ceil(side/liberty.RowHeight) * liberty.RowHeight
	die := geom.NewRect(0, 0, side, side)
	b.SetDie(die)
	b.AddRowsFilling()

	// Boundary ports: clock + PIs + POs spread around the die edge.
	perimPos := func(k, total int) geom.Point {
		t := float64(k) / float64(total)
		perim := 4 * side
		dl := t * perim
		switch {
		case dl < side:
			return geom.Point{X: dl, Y: 0}
		case dl < 2*side:
			return geom.Point{X: side, Y: dl - side}
		case dl < 3*side:
			return geom.Point{X: 3*side - dl, Y: side}
		default:
			return geom.Point{X: 0, Y: 4*side - dl}
		}
	}
	totalPorts := 1 + p.NumInputs + p.NumOutputs
	portK := 0
	clkPort := b.AddInputPort("clk", perimPos(portK, totalPorts))
	portK++
	clkNet := b.AddNet("clknet")
	b.Connect(clkNet, clkPort, "")

	var inPorts []int32 //dtgp:index elem=cell
	for i := 0; i < p.NumInputs; i++ {
		pi := b.AddInputPort(fmt.Sprintf("in%d", i), perimPos(portK, totalPorts))
		portK++
		ni := b.AddNet(fmt.Sprintf("nin%d", i))
		b.Connect(ni, pi, "")
		signals = append(signals, signal{net: ni})
		inPorts = append(inPorts, pi)
	}
	var outPorts []int32 //dtgp:index elem=cell
	for i := 0; i < p.NumOutputs; i++ {
		po := b.AddOutputPort(fmt.Sprintf("out%d", i), perimPos(portK, totalPorts))
		portK++
		outPorts = append(outPorts, po)
	}

	// Registers first: their Q outputs seed the signal pool alongside PIs,
	// their D inputs are connected at the end (register-bounded cloud).
	type ffRec struct {
		cell int32
	}
	ffs := make([]ffRec, numFF)
	for i := range ffs {
		ci := b.AddCell(fmt.Sprintf("ff%d", i), pickFF(rng))
		b.Connect(clkNet, ci, "CK")
		qNet := b.AddNet(fmt.Sprintf("nq%d", i))
		b.Connect(qNet, ci, "Q")
		signals = append(signals, signal{net: qNet})
		ffs[i] = ffRec{cell: ci}
	}

	// Mark a few early signals as high-fanout hubs.
	for h := 0; h < p.HighFanoutNets && h < len(signals); h++ {
		signals[rng.Intn(len(signals))].isHub = true
	}

	window := p.LocalityWindow
	if window < 4 {
		window = 4
	}
	// pickSignal chooses a driver for a new input: usually a recent
	// signal (locality → depth), sometimes a hub (fanout tail), sometimes
	// anything (reconvergence).
	var hubIdx []int
	for i := range signals {
		if signals[i].isHub {
			hubIdx = append(hubIdx, i)
		}
	}
	pickSignal := func() int {
		r := rng.Float64()
		switch {
		case r < 0.08 && len(hubIdx) > 0:
			return hubIdx[rng.Intn(len(hubIdx))]
		case r < 0.22:
			return rng.Intn(len(signals))
		default:
			lo := len(signals) - window
			if lo < 0 {
				lo = 0
			}
			// Sample twice and prefer a not-yet-consumed signal, so few
			// gate outputs end up dangling.
			a := lo + rng.Intn(len(signals)-lo)
			if signals[a].fanout == 0 {
				return a
			}
			b := lo + rng.Intn(len(signals)-lo)
			if signals[b].fanout == 0 {
				return b
			}
			return a
		}
	}

	// Gates.
	for gi := 0; gi < numGates; gi++ {
		master := pickGate()
		ci := b.AddCell(fmt.Sprintf("g%d", gi), master)
		mc := lc(master)
		for _, pinIdx := range mc.Inputs() {
			si := pickSignal()
			b.Connect(signals[si].net, ci, mc.Pins[pinIdx].Name)
			signals[si].fanout++
		}
		onet := b.AddNet(fmt.Sprintf("n%d", gi))
		b.Connect(onet, ci, "Z")
		signals = append(signals, signal{net: onet})
	}

	// Close the loop: FF D inputs and POs consume late signals, strongly
	// preferring unconsumed ones so few nets dangle.
	var unconsumed []int
	for i := range signals {
		if signals[i].fanout == 0 {
			unconsumed = append(unconsumed, i)
		}
	}
	rng.Shuffle(len(unconsumed), func(i, j int) { unconsumed[i], unconsumed[j] = unconsumed[j], unconsumed[i] })
	takeSink := func() int {
		if len(unconsumed) > 0 {
			si := unconsumed[len(unconsumed)-1]
			unconsumed = unconsumed[:len(unconsumed)-1]
			return si
		}
		return pickSignal()
	}
	for i := range ffs {
		si := takeSink()
		b.Connect(signals[si].net, ffs[i].cell, "D")
		signals[si].fanout++
	}
	for _, po := range outPorts {
		si := takeSink()
		b.Connect(signals[si].net, po, "")
		signals[si].fanout++
	}
	_ = inPorts

	d, err := b.Finish()
	if err != nil {
		return nil, nil, err
	}

	// Random initial placement of movable cells inside the die (the global
	// placer re-initialises anyway; this makes the raw design analyzable).
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Fixed() {
			continue
		}
		c.Pos.X = die.Lo.X + rng.Float64()*(die.W()-c.W)
		c.Pos.Y = die.Lo.Y + rng.Float64()*(die.H()-c.H)
	}

	con := sdc.New()
	con.ClockName = "clk"
	con.ClockPort = "clk"
	period := p.ClockPeriod
	if period <= 0 {
		// Auto period: proportional to expected depth so initial random
		// placements are mildly infeasible (negative slack to optimise).
		period = 60 * math.Sqrt(float64(p.NumCells))
	}
	con.Period = period
	con.ClockSlew = 20
	for i := 0; i < p.NumInputs; i++ {
		name := fmt.Sprintf("in%d", i)
		con.InputDelay[name] = 0.05 * period
		con.InputSlew[name] = 30
	}
	for i := 0; i < p.NumOutputs; i++ {
		name := fmt.Sprintf("out%d", i)
		con.OutputDelay[name] = 0.05 * period
		con.PortLoad[name] = 3
	}
	return d, con, nil
}

func pickFF(rng *rand.Rand) string {
	if rng.Float64() < 0.3 {
		return "DFF_X2"
	}
	return "DFF_X1"
}
