// Package netlist holds the flat circuit model shared by every stage of the
// flow: cells, pins and nets in structure-of-arrays form with int32 indices,
// plus the physical floorplan (die, rows) and the bound Liberty library.
//
// The layout mirrors what GPU placers like DREAMPlace keep in device memory:
// dense index arrays rather than pointer graphs, so that hot loops (wirelength
// gradients, STA propagation) stream through memory.
package netlist

import (
	"fmt"

	"dtgp/internal/geom"
	"dtgp/internal/liberty"
	"dtgp/internal/parallel"
)

// CellClass classifies a cell instance.
type CellClass uint8

// Cell classes.
const (
	// ClassComb is a movable combinational standard cell.
	ClassComb CellClass = iota
	// ClassSeq is a movable sequential standard cell (register).
	ClassSeq
	// ClassPort is a fixed zero-area primary input/output terminal.
	ClassPort
	// ClassFixed is a fixed macro or pre-placed blockage.
	ClassFixed
	// ClassFiller is a whitespace filler used only by the density model.
	ClassFiller
)

func (c CellClass) String() string {
	switch c {
	case ClassComb:
		return "comb"
	case ClassSeq:
		return "seq"
	case ClassPort:
		return "port"
	case ClassFixed:
		return "fixed"
	case ClassFiller:
		return "filler"
	default:
		return "unknown"
	}
}

// PinDir is the signal direction of a pin instance as seen from its net: a
// pin that drives the net is an output pin of its cell.
type PinDir uint8

// Pin directions.
const (
	PinInput  PinDir = iota // sinks the net
	PinOutput               // drives the net
)

// Cell is one placed instance.
type Cell struct {
	Name string
	// Lib indexes Design.Lib.Cells, or is -1 for ports and fillers.
	Lib int32 //dtgp:index domain=lcell
	// Pos is the lower-left corner in DBU.
	Pos geom.Point
	// W, H is the footprint (zero for ports).
	W, H  float64
	Class CellClass
	// Pins lists this cell's pin ids, positioned by library pin index.
	Pins []int32 //dtgp:index domain=lpin elem=pin
}

// Fixed reports whether the placer may move the cell.
func (c *Cell) Fixed() bool { return c.Class == ClassPort || c.Class == ClassFixed }

// Movable reports whether the placer optimizes the cell's location
// (fillers move too, but carry no connectivity).
func (c *Cell) Movable() bool { return !c.Fixed() }

// Pin is one pin instance.
type Pin struct {
	// Cell owns the pin.
	Cell int32 //dtgp:index domain=cell
	// Net is the net the pin connects to, or -1 when unconnected.
	Net int32 //dtgp:index domain=net
	// LibPin indexes the owning cell's liberty pin list, or -1 for ports.
	LibPin int32 //dtgp:index domain=lpin
	// Offset from the owning cell's lower-left corner.
	Offset geom.Point
	Dir    PinDir
}

// Net is one signal net.
type Net struct {
	Name string
	// Pins lists connected pin ids; Driver is the id of the driving pin or
	// -1 for undriven (e.g. dangling) nets.
	Pins   []int32 //dtgp:index domain=npin elem=pin
	Driver int32   //dtgp:index domain=pin
	// Weight is the net weight used by weighted wirelength; 1 by default.
	Weight float64
}

// Degree returns the number of pins on the net.
func (n *Net) Degree() int { return len(n.Pins) }

// Row is one standard-cell placement row.
type Row struct {
	// Origin is the left end of the row at its bottom edge.
	Origin geom.Point
	// SiteWidth and NumSites define the legal x positions.
	SiteWidth float64
	NumSites  int
	Height    float64
}

// Right returns the x coordinate of the row's right end.
func (r *Row) Right() float64 { return r.Origin.X + float64(r.NumSites)*r.SiteWidth }

// Design is a complete design: netlist + floorplan + library binding.
type Design struct {
	Name string
	Die  geom.Rect
	Rows []Row

	Cells []Cell //dtgp:index domain=cell
	Nets  []Net  //dtgp:index domain=net
	Pins  []Pin  //dtgp:index domain=pin

	Lib *liberty.Library

	cellIndex map[string]int32 //dtgp:index elem=cell

	// pinSlab is the flat slab Compact re-laid the pin lists into (nil
	// before the first Compact); see compact.go.
	pinSlab []int32 //dtgp:index elem=pin

	// pinPos is the pin-position column: pinPos[p] is PinPos(p) as of the
	// last FillPinPositions, and fillFn is that fill's stored kernel. Both
	// are built on the first fill.
	pinPos []geom.Point //dtgp:index domain=pin
	fillFn func(w, lo, hi int)
}

// CellByName returns the index of the named cell, or -1.
//
//dtgp:index return=cell
func (d *Design) CellByName(name string) int32 {
	if d.cellIndex == nil {
		d.BuildIndex()
	}
	if i, ok := d.cellIndex[name]; ok {
		return i
	}
	return -1
}

// NetByName returns the index of the named net, or -1. It scans the nets:
// no program looks a net up by name, so the design keeps no net-name map.
//
//dtgp:index return=net
//dtgp:allow(unreached) tests in netlist, gen, netweight, timing and verilog
func (d *Design) NetByName(name string) int32 {
	for i := range d.Nets {
		if d.Nets[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

// BuildIndex (re)builds the cell-name lookup map. Call after structural
// edits.
func (d *Design) BuildIndex() {
	d.cellIndex = make(map[string]int32, len(d.Cells))
	for i := range d.Cells {
		d.cellIndex[d.Cells[i].Name] = int32(i)
	}
}

// PinPos returns the absolute position of pin p.
//
//dtgp:index p=pin
func (d *Design) PinPos(p int32) geom.Point {
	pin := &d.Pins[p]
	cell := &d.Cells[pin.Cell]
	return geom.Point{X: cell.Pos.X + pin.Offset.X, Y: cell.Pos.Y + pin.Offset.Y}
}

// FillPinPositions writes every pin's absolute position into the design's
// pin-position column, in parallel, with PinPos's sum (cell position plus
// pin offset), so a reader of the column sees the same bits as one of
// PinPos. Cells move by writing Cell.Pos, so every bulk reader of the
// column (the wirelength model, the net-state builders and both timers)
// calls this when it is entered. The first call allocates the column and
// the kernel; later calls allocate nothing.
//
//dtgp:hotpath
func (d *Design) FillPinPositions() {
	if len(d.pinPos) != len(d.Pins) {
		d.pinPos = make([]geom.Point, len(d.Pins))
	}
	if d.fillFn == nil {
		d.fillFn = func(_, lo, hi int) {
			pins, col := d.Pins[lo:hi], d.pinPos[lo:hi]
			for k := range pins {
				pin := &pins[k]
				pos := d.Cells[pin.Cell].Pos
				col[k] = geom.Point{X: pos.X + pin.Offset.X, Y: pos.Y + pin.Offset.Y}
			}
		}
	}
	parallel.ForWorker(len(d.Pins), parallel.CostTrivial, d.fillFn)
}

// PinPositions returns the pin-position column, one entry per pin, as of
// the last FillPinPositions (nil before the first).
//
//dtgp:index return=pin
func (d *Design) PinPositions() []geom.Point { return d.pinPos }

// PinName returns a hierarchical "cell/pin" display name.
//
//dtgp:index p=pin
func (d *Design) PinName(p int32) string {
	pin := &d.Pins[p]
	cell := &d.Cells[pin.Cell]
	if cell.Class == ClassPort {
		return cell.Name
	}
	if d.Lib != nil && cell.Lib >= 0 && pin.LibPin >= 0 {
		return cell.Name + "/" + d.Lib.Cells[cell.Lib].Pins[pin.LibPin].Name
	}
	return fmt.Sprintf("%s/p%d", cell.Name, p)
}

// NetHPWL returns the half-perimeter wirelength of net n, zero for nets
// with fewer than two pins.
//
//dtgp:index n=net
func (d *Design) NetHPWL(n int32) float64 {
	net := &d.Nets[n]
	if len(net.Pins) < 2 {
		return 0
	}
	p0 := d.PinPos(net.Pins[0])
	bb := geom.Rect{Lo: p0, Hi: p0}
	for _, pid := range net.Pins[1:] {
		bb = bb.ExpandToInclude(d.PinPos(pid))
	}
	return bb.HalfPerimeter()
}

// HPWL returns the total half-perimeter wirelength over all nets.
func (d *Design) HPWL() float64 {
	total := 0.0
	for n := range d.Nets {
		total += d.NetHPWL(int32(n))
	}
	return total
}

// MovableArea returns the total area of movable non-filler cells.
func (d *Design) MovableArea() float64 {
	a := 0.0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Movable() && c.Class != ClassFiller {
			a += c.W * c.H
		}
	}
	return a
}

// FixedArea returns the total area of fixed cells inside the die.
func (d *Design) FixedArea() float64 {
	a := 0.0
	for i := range d.Cells {
		c := &d.Cells[i]
		if c.Fixed() {
			r := geom.NewRect(c.Pos.X, c.Pos.Y, c.Pos.X+c.W, c.Pos.Y+c.H)
			a += r.OverlapArea(d.Die)
		}
	}
	return a
}

// Stats summarises the design in the shape of the paper's Table 2.
type Stats struct {
	Name                string
	Cells, Nets, Pins   int
	Movable, Sequential int
	Ports               int
	AvgNetDegree        float64
	MaxNetDegree        int
	Utilization         float64
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	s := Stats{Name: d.Name, Cells: 0, Nets: len(d.Nets)}
	for i := range d.Cells {
		c := &d.Cells[i]
		switch c.Class {
		case ClassFiller:
			continue
		case ClassPort:
			s.Ports++
		case ClassSeq:
			s.Sequential++
		}
		s.Cells++
		if c.Movable() {
			s.Movable++
		}
		s.Pins += len(c.Pins)
	}
	for n := range d.Nets {
		deg := d.Nets[n].Degree()
		s.AvgNetDegree += float64(deg)
		if deg > s.MaxNetDegree {
			s.MaxNetDegree = deg
		}
	}
	if len(d.Nets) > 0 {
		s.AvgNetDegree /= float64(len(d.Nets))
	}
	if a := d.Die.Area(); a > 0 {
		s.Utilization = d.MovableArea() / (a - d.FixedArea())
	}
	return s
}

// Validate checks referential integrity of the whole design. It runs in
// O(pins): one pass over the nets counts how often each pin is listed on
// its own net, and the pin loop reads the count (a pin must be listed
// exactly once).
func (d *Design) Validate() error {
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if d.Lib != nil && c.Lib >= 0 {
			if int(c.Lib) >= len(d.Lib.Cells) {
				return fmt.Errorf("netlist: cell %q references library cell %d out of range", c.Name, c.Lib)
			}
		}
		for _, pid := range c.Pins {
			if pid < 0 || int(pid) >= len(d.Pins) {
				return fmt.Errorf("netlist: cell %q references pin %d out of range", c.Name, pid)
			}
			if d.Pins[pid].Cell != int32(ci) {
				return fmt.Errorf("netlist: pin %d back-reference mismatch for cell %q", pid, c.Name)
			}
		}
	}
	listed := make([]int32, len(d.Pins)) //dtgp:index domain=pin
	for ni := range d.Nets {
		for _, pid := range d.Nets[ni].Pins {
			if pid >= 0 && int(pid) < len(d.Pins) && d.Pins[pid].Net == int32(ni) {
				listed[pid]++
			}
		}
	}
	for pi := range d.Pins {
		p := &d.Pins[pi]
		if p.Cell < 0 || int(p.Cell) >= len(d.Cells) {
			return fmt.Errorf("netlist: pin %d references cell %d out of range", pi, p.Cell)
		}
		if p.Net >= 0 {
			if int(p.Net) >= len(d.Nets) {
				return fmt.Errorf("netlist: pin %d references net %d out of range", pi, p.Net)
			}
			switch n := listed[pi]; {
			case n == 0:
				return fmt.Errorf("netlist: pin %d not listed on its net %q", pi, d.Nets[p.Net].Name)
			case n > 1:
				return fmt.Errorf("netlist: pin %d listed %d times on its net %q", pi, n, d.Nets[p.Net].Name)
			}
		}
	}
	for ni := range d.Nets {
		net := &d.Nets[ni]
		drivers := 0
		for _, pid := range net.Pins {
			if pid < 0 || int(pid) >= len(d.Pins) {
				return fmt.Errorf("netlist: net %q references pin %d out of range", net.Name, pid)
			}
			if d.Pins[pid].Net != int32(ni) {
				return fmt.Errorf("netlist: pin %d back-reference mismatch for net %q", pid, net.Name)
			}
			if d.Pins[pid].Dir == PinOutput {
				drivers++
			}
		}
		if drivers > 1 {
			return fmt.Errorf("netlist: net %q has %d drivers", net.Name, drivers)
		}
		if net.Driver >= 0 && d.Pins[net.Driver].Dir != PinOutput {
			return fmt.Errorf("netlist: net %q driver pin %d is not an output", net.Name, net.Driver)
		}
	}
	return nil
}

// Clone deep-copies the design (library is shared, it is immutable during
// placement). The clone gets a pin-position column of its own on its first
// FillPinPositions.
func (d *Design) Clone() *Design {
	nd := &Design{
		Name:  d.Name,
		Die:   d.Die,
		Rows:  append([]Row(nil), d.Rows...),
		Cells: make([]Cell, len(d.Cells)),
		Nets:  make([]Net, len(d.Nets)),
		Pins:  append([]Pin(nil), d.Pins...),
		Lib:   d.Lib,
	}
	for i := range d.Cells {
		nd.Cells[i] = d.Cells[i]
		nd.Cells[i].Pins = append([]int32(nil), d.Cells[i].Pins...)
	}
	for i := range d.Nets {
		nd.Nets[i] = d.Nets[i]
		nd.Nets[i].Pins = append([]int32(nil), d.Nets[i].Pins...)
	}
	return nd
}

// Positions extracts the movable-cell position vectors (by cell index) used
// by the optimizer; fixed cells are included so indices line up.
func (d *Design) Positions() (x, y []float64) {
	x = make([]float64, len(d.Cells))
	y = make([]float64, len(d.Cells))
	for i := range d.Cells {
		x[i] = d.Cells[i].Pos.X
		y[i] = d.Cells[i].Pos.Y
	}
	return x, y
}

// SetPositions writes position vectors back into the design.
func (d *Design) SetPositions(x, y []float64) {
	for i := range d.Cells {
		d.Cells[i].Pos.X = x[i]
		d.Cells[i].Pos.Y = y[i]
	}
}
