// Package liberty models the timing view of a standard-cell library: NLDM
// look-up tables, timing arcs with unateness, pin capacitances and
// sequential constraints. It provides a parser and writer for the subset of
// the Liberty (.lib) format the ICCAD 2015 contest libraries use, plus a
// parameterised synthetic library builder used by the benchmark generator.
//
// Units follow the contest convention: time in picoseconds (ps),
// capacitance in femtofarads (fF), resistance in kiloohms (kΩ). With these
// units an Elmore product R·C comes out directly in ps.
package liberty

import (
	"fmt"

	"dtgp/internal/geom"
)

// PinDir is the direction of a library pin.
type PinDir uint8

// Pin directions.
const (
	DirInput PinDir = iota
	DirOutput
	DirInout
)

func (d PinDir) String() string {
	switch d {
	case DirInput:
		return "input"
	case DirOutput:
		return "output"
	default:
		return "inout"
	}
}

// Unateness describes how an output transition relates to the input
// transition that caused it across a timing arc.
type Unateness uint8

// Unateness values.
const (
	// PositiveUnate: rising input causes rising output (buffers, AND).
	PositiveUnate Unateness = iota
	// NegativeUnate: rising input causes falling output (inverters, NAND).
	NegativeUnate
	// NonUnate: either input edge can cause either output edge (XOR, MUX
	// select, clock-to-Q arcs).
	NonUnate
)

func (u Unateness) String() string {
	switch u {
	case PositiveUnate:
		return "positive_unate"
	case NegativeUnate:
		return "negative_unate"
	default:
		return "non_unate"
	}
}

// ArcKind distinguishes delay arcs from timing checks.
type ArcKind uint8

// Arc kinds.
const (
	// ArcCombinational is an input→output delay arc through combinational
	// logic.
	ArcCombinational ArcKind = iota
	// ArcClockToQ is the launch arc of a register: clock pin → Q output.
	ArcClockToQ
	// ArcSetup is a setup check: data must arrive this long before the
	// capturing clock edge.
	ArcSetup
	// ArcHold is a hold check: data must remain stable this long after the
	// capturing clock edge.
	ArcHold
)

func (k ArcKind) String() string {
	switch k {
	case ArcCombinational:
		return "combinational"
	case ArcClockToQ:
		return "rising_edge"
	case ArcSetup:
		return "setup_rising"
	case ArcHold:
		return "hold_rising"
	default:
		return "unknown"
	}
}

// Pin is a pin of a library cell.
type Pin struct {
	Name string
	Dir  PinDir
	// Cap is the input pin capacitance in fF (zero for outputs).
	Cap float64
	// MaxCap is the largest load the pin may drive, in fF (outputs only).
	MaxCap float64
	// IsClock marks register clock pins.
	IsClock bool
	// Offset is the pin's physical location relative to the cell's
	// lower-left corner, in DBU. Liberty itself carries no geometry; the
	// writer emits it as a comment attribute and the synthetic builder
	// fills it directly.
	Offset geom.Point
}

// TimingArc is one timing relation between two pins of a cell.
type TimingArc struct {
	// From and To are indices into Cell.Pins. For checks, From is the
	// clock pin and To the constrained data pin.
	From, To int //dtgp:index domain=lpin
	Kind     ArcKind
	Unate    Unateness

	// Delay and output-slew tables for delay arcs, per output transition.
	CellRise, CellFall             *LUT
	RiseTransition, FallTransition *LUT

	// Constraint tables for setup/hold arcs, per data transition.
	// Index1 = clock slew, Index2 = data slew.
	RiseConstraint, FallConstraint *LUT
}

// IsCheck reports whether the arc is a setup or hold constraint rather than
// a delay arc.
func (a *TimingArc) IsCheck() bool { return a.Kind == ArcSetup || a.Kind == ArcHold }

// Cell is a standard cell (or macro) master.
type Cell struct {
	Name string
	// Area in square DBU; Width and Height are the physical footprint.
	Area          float64
	Width, Height float64
	IsSequential  bool
	Pins          []Pin //dtgp:index domain=lpin
	Arcs          []TimingArc

	pinIndex map[string]int //dtgp:index elem=lpin
}

// PinByName returns the index of the named pin, or -1.
//
//dtgp:index return=lpin
func (c *Cell) PinByName(name string) int {
	if c.pinIndex == nil {
		c.buildIndex()
	}
	if i, ok := c.pinIndex[name]; ok {
		return i
	}
	return -1
}

func (c *Cell) buildIndex() {
	c.pinIndex = make(map[string]int, len(c.Pins))
	for i := range c.Pins {
		c.pinIndex[c.Pins[i].Name] = i
	}
}

// ClockPin returns the index of the clock pin, or -1.
//
//dtgp:index return=lpin
func (c *Cell) ClockPin() int {
	for i := range c.Pins {
		if c.Pins[i].IsClock {
			return i
		}
	}
	return -1
}

// Inputs returns the indices of all input pins (including clocks).
//
//dtgp:index return=[]lpin
func (c *Cell) Inputs() []int {
	var in []int
	for i := range c.Pins {
		if c.Pins[i].Dir == DirInput {
			in = append(in, i)
		}
	}
	return in
}

// Library is a full standard-cell library.
type Library struct {
	Name string

	// WireResPerDBU is wire resistance in kΩ per DBU of routed length;
	// WireCapPerDBU is wire capacitance in fF per DBU. They parameterise
	// the Elmore RC extraction of Steiner trees.
	WireResPerDBU float64
	WireCapPerDBU float64

	// DefaultMaxTransition caps propagated slews, in ps.
	DefaultMaxTransition float64

	Cells []Cell //dtgp:index domain=lcell

	cellIndex map[string]int //dtgp:index elem=lcell
}

// CellByName returns the index of the named cell master, or -1.
//
//dtgp:index return=lcell
func (l *Library) CellByName(name string) int {
	if l.cellIndex == nil {
		l.BuildIndex()
	}
	if i, ok := l.cellIndex[name]; ok {
		return i
	}
	return -1
}

// BuildIndex (re)builds the name lookup maps. Call after mutating Cells.
func (l *Library) BuildIndex() {
	l.cellIndex = make(map[string]int, len(l.Cells))
	for i := range l.Cells {
		l.cellIndex[l.Cells[i].Name] = i
		l.Cells[i].buildIndex()
	}
}

// Validate checks structural invariants: unique names, arcs referencing
// valid pins, delay arcs having all four NLDM tables, checks having both
// constraint tables, sequential cells having a clock pin.
func (l *Library) Validate() error {
	seen := make(map[string]bool, len(l.Cells))
	for ci := range l.Cells {
		c := &l.Cells[ci]
		if c.Name == "" {
			return fmt.Errorf("liberty: cell %d has empty name", ci)
		}
		if seen[c.Name] {
			return fmt.Errorf("liberty: duplicate cell %q", c.Name)
		}
		seen[c.Name] = true
		pinSeen := make(map[string]bool, len(c.Pins))
		for pi := range c.Pins {
			p := &c.Pins[pi]
			if p.Name == "" {
				return fmt.Errorf("liberty: cell %q pin %d has empty name", c.Name, pi)
			}
			if pinSeen[p.Name] {
				return fmt.Errorf("liberty: cell %q duplicate pin %q", c.Name, p.Name)
			}
			pinSeen[p.Name] = true
		}
		for ai := range c.Arcs {
			a := &c.Arcs[ai]
			if a.From < 0 || a.From >= len(c.Pins) || a.To < 0 || a.To >= len(c.Pins) {
				return fmt.Errorf("liberty: cell %q arc %d references pin out of range", c.Name, ai)
			}
			if a.IsCheck() {
				if a.RiseConstraint == nil || a.FallConstraint == nil {
					return fmt.Errorf("liberty: cell %q check arc %d missing constraint tables", c.Name, ai)
				}
				if !c.Pins[a.From].IsClock {
					return fmt.Errorf("liberty: cell %q check arc %d: from-pin %q is not a clock",
						c.Name, ai, c.Pins[a.From].Name)
				}
			} else {
				if a.CellRise == nil || a.CellFall == nil || a.RiseTransition == nil || a.FallTransition == nil {
					return fmt.Errorf("liberty: cell %q delay arc %d missing NLDM tables", c.Name, ai)
				}
				if c.Pins[a.To].Dir != DirOutput {
					return fmt.Errorf("liberty: cell %q delay arc %d: to-pin %q is not an output",
						c.Name, ai, c.Pins[a.To].Name)
				}
			}
		}
		if c.IsSequential && c.ClockPin() < 0 {
			return fmt.Errorf("liberty: sequential cell %q has no clock pin", c.Name)
		}
	}
	if l.WireResPerDBU < 0 || l.WireCapPerDBU < 0 {
		return fmt.Errorf("liberty: negative wire RC parameters")
	}
	return nil
}
