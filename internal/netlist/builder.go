package netlist

import (
	"fmt"

	"dtgp/internal/geom"
	"dtgp/internal/liberty"
)

// Builder constructs a Design incrementally. It is used by the synthetic
// benchmark generator, the Bookshelf reader, tests and the examples.
type Builder struct {
	d   *Design
	err error
}

// NewBuilder starts a design bound to the given library.
func NewBuilder(name string, lib *liberty.Library) *Builder {
	return &Builder{d: &Design{Name: name, Lib: lib}}
}

// SetDie sets the placement area.
func (b *Builder) SetDie(r geom.Rect) *Builder {
	b.d.Die = r
	return b
}

// AddRowsFilling tiles the die with standard-cell rows of the library row
// height and unit sites.
func (b *Builder) AddRowsFilling() *Builder {
	die := b.d.Die
	numRows := int(die.H() / liberty.RowHeight)
	sites := int(die.W() / liberty.SiteWidth)
	for r := 0; r < numRows; r++ {
		b.d.Rows = append(b.d.Rows, Row{
			Origin:    geom.Point{X: die.Lo.X, Y: die.Lo.Y + float64(r)*liberty.RowHeight},
			SiteWidth: liberty.SiteWidth,
			NumSites:  sites,
			Height:    liberty.RowHeight,
		})
	}
	return b
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// AddCell instantiates a library cell and returns its index (-1 on a
// recorded error). Pins are created from the library master with its
// physical offsets.
//
//dtgp:index return=cell
func (b *Builder) AddCell(name, master string) int32 {
	if b.err != nil {
		return -1
	}
	li := b.d.Lib.CellByName(master)
	if li < 0 {
		b.fail("netlist: unknown library cell %q", master)
		return -1
	}
	lc := &b.d.Lib.Cells[li]
	class := ClassComb
	if lc.IsSequential {
		class = ClassSeq
	}
	ci := int32(len(b.d.Cells))
	cell := Cell{
		Name:  name,
		Lib:   int32(li),
		W:     lc.Width,
		H:     lc.Height,
		Class: class,
	}
	for pi := range lc.Pins {
		pid := int32(len(b.d.Pins))
		dir := PinInput
		if lc.Pins[pi].Dir == liberty.DirOutput {
			dir = PinOutput
		}
		b.d.Pins = append(b.d.Pins, Pin{
			Cell:   ci,
			Net:    -1,
			LibPin: int32(pi),
			Offset: lc.Pins[pi].Offset,
			Dir:    dir,
		})
		cell.Pins = append(cell.Pins, pid)
	}
	b.d.Cells = append(b.d.Cells, cell)
	return ci
}

// AddFixedMacro adds an immovable blockage with no pins.
//
//dtgp:index return=cell
//dtgp:allow(unreached) legalize's TestLegalizeRespectsBlockages and netlist's TestFixedMacro
func (b *Builder) AddFixedMacro(name string, r geom.Rect) int32 {
	ci := int32(len(b.d.Cells))
	b.d.Cells = append(b.d.Cells, Cell{
		Name:  name,
		Lib:   -1,
		Pos:   r.Lo,
		W:     r.W(),
		H:     r.H(),
		Class: ClassFixed,
	})
	return ci
}

// AddInputPort adds a fixed primary input at pos. Its single pin drives
// whatever net it is attached to.
//
//dtgp:index return=cell
func (b *Builder) AddInputPort(name string, pos geom.Point) int32 {
	return b.addPort(name, pos, PinOutput)
}

// AddOutputPort adds a fixed primary output at pos. Its single pin sinks
// the attached net.
//
//dtgp:index return=cell
func (b *Builder) AddOutputPort(name string, pos geom.Point) int32 {
	return b.addPort(name, pos, PinInput)
}

//dtgp:index return=cell
func (b *Builder) addPort(name string, pos geom.Point, dir PinDir) int32 {
	if b.err != nil {
		return -1
	}
	ci := int32(len(b.d.Cells))
	pid := int32(len(b.d.Pins))
	b.d.Pins = append(b.d.Pins, Pin{Cell: ci, Net: -1, LibPin: -1, Dir: dir})
	b.d.Cells = append(b.d.Cells, Cell{
		Name:  name,
		Lib:   -1,
		Pos:   pos,
		Class: ClassPort,
		Pins:  []int32{pid},
	})
	return ci
}

// AddNet creates an empty net and returns its index.
//
//dtgp:index return=net
func (b *Builder) AddNet(name string) int32 {
	ni := int32(len(b.d.Nets))
	b.d.Nets = append(b.d.Nets, Net{Name: name, Driver: -1, Weight: 1})
	return ni
}

// Connect attaches the named pin of cell ci to net ni. Ports use pin name
// "" (their only pin).
//
//dtgp:index ni=net ci=cell
func (b *Builder) Connect(ni, ci int32, pinName string) *Builder {
	if b.err != nil {
		return b
	}
	if ni < 0 || int(ni) >= len(b.d.Nets) {
		b.fail("netlist: connect: net %d out of range", ni)
		return b
	}
	if ci < 0 || int(ci) >= len(b.d.Cells) {
		b.fail("netlist: connect: cell %d out of range", ci)
		return b
	}
	cell := &b.d.Cells[ci]
	var pid int32 = -1
	if cell.Class == ClassPort {
		pid = cell.Pins[0]
	} else {
		lc := &b.d.Lib.Cells[cell.Lib]
		lp := lc.PinByName(pinName)
		if lp < 0 {
			b.fail("netlist: connect: cell %q has no pin %q", cell.Name, pinName)
			return b
		}
		pid = cell.Pins[lp]
	}
	pin := &b.d.Pins[pid]
	if pin.Net >= 0 {
		b.fail("netlist: connect: pin %q already on net %q",
			b.d.PinName(pid), b.d.Nets[pin.Net].Name)
		return b
	}
	pin.Net = ni
	net := &b.d.Nets[ni]
	net.Pins = append(net.Pins, pid)
	if pin.Dir == PinOutput {
		if net.Driver >= 0 {
			b.fail("netlist: connect: net %q has two drivers", net.Name)
			return b
		}
		net.Driver = pid
	}
	return b
}

// Finish validates and returns the design.
func (b *Builder) Finish() (*Design, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.d.BuildIndex()
	if err := b.d.Validate(); err != nil {
		return nil, err
	}
	return b.d, nil
}
