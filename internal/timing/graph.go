// Package timing implements the exact static timing analysis engine: timing
// graph construction over the netlist, topological levelization (§3.3 step
// 1), Elmore net arcs, NLDM cell arcs with rise/fall unateness, early/late
// arrival times, required times, setup/hold slacks and WNS/TNS. The
// differentiable engine in internal/core shares the graph and the per-net
// Steiner/RC state built here.
package timing

import (
	"fmt"

	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
	"dtgp/internal/sdc"
)

// Transition indexes rise/fall array pairs.
type Transition int

// Transitions.
const (
	Rise Transition = 0
	Fall Transition = 1
)

func (t Transition) String() string {
	if t == Rise {
		return "rise"
	}
	return "fall"
}

// TIdx flattens a (pin, transition) pair into an array index.
//
//dtgp:index pin=pin return=tnode
func TIdx(pin int32, tr Transition) int32 { return 2*pin + int32(tr) }

// ArcRef is one cell delay arc instantiated on design pins.
type ArcRef struct {
	// FromPin is the design pin id of the arc input.
	FromPin int32 //dtgp:index domain=pin
	// Arc points into the library cell's arc list.
	Arc *liberty.TimingArc
}

// CheckRef is a setup or hold check instantiated on design pins.
type CheckRef struct {
	DataPin int32 //dtgp:index domain=pin
	ClkPin  int32 //dtgp:index domain=pin
	Arc     *liberty.TimingArc
}

// EndpointKind distinguishes register data pins from primary outputs.
type EndpointKind uint8

// Endpoint kinds.
const (
	EndFFData EndpointKind = iota
	EndPort
)

// Endpoint is a timing endpoint where slack is measured.
type Endpoint struct {
	Pin   int32 //dtgp:index domain=pin
	Kind  EndpointKind
	Setup *CheckRef // nil for ports
	Hold  *CheckRef // nil for ports
	// PortName for EndPort endpoints (required-time lookup).
	PortName string
}

// Graph is the static structure of the timing problem: which pins exist in
// the timing universe, their topological levels, and the arcs between them.
// It depends only on connectivity, never on placement, so it is built once
// (§3.3: "this needs to be done only once").
type Graph struct {
	D   *netlist.Design
	Con *sdc.Constraints

	// ArcsInto[p] lists the cell delay arcs driving output pin p.
	ArcsInto [][]ArcRef //dtgp:index domain=pin
	// Checks lists all setup/hold checks.
	Checks []CheckRef
	// Endpoints lists slack measurement points.
	Endpoints []Endpoint //dtgp:index domain=endp

	// IsClockPin marks register clock pins (fixed AT/slew, ideal clock).
	IsClockPin []bool //dtgp:index domain=pin
	// IsClockNet marks nets excluded from timing propagation.
	IsClockNet []bool //dtgp:index domain=net
	// IsStart marks pins with externally fixed arrival (PI ports, clock
	// pins).
	IsStart []bool //dtgp:index domain=pin
	// IsNetSink marks pins whose arrival comes through a net arc.
	IsNetSink []bool //dtgp:index domain=pin
	// IsCellOut marks pins whose arrival comes through cell arcs.
	IsCellOut []bool //dtgp:index domain=pin
	// NetOfSink[p] is the net a net-sink pin p sinks, or -1.
	NetOfSink []int32 //dtgp:index domain=pin elem=net
	// EndpointOf[p] is the index of the endpoint at pin p, or -1.
	EndpointOf []int32 //dtgp:index domain=pin elem=endp

	// Level[p] is the topological level of pin p (-1 for pins outside the
	// timing universe); Levels groups pins by level in ascending order.
	Level  []int32   //dtgp:index domain=pin elem=level
	Levels [][]int32 //dtgp:index domain=level

	// SinkCap[p] is the capacitance a net sees at sink pin p: library
	// input-pin capacitance, or the SDC load for output ports.
	SinkCap []float64 //dtgp:index domain=pin
}

// NewGraph builds the timing graph for a design under constraints.
func NewGraph(d *netlist.Design, con *sdc.Constraints) (*Graph, error) {
	if d.Lib == nil {
		return nil, fmt.Errorf("timing: design has no library")
	}
	nPins := len(d.Pins)
	g := &Graph{
		D:          d,
		Con:        con,
		ArcsInto:   make([][]ArcRef, nPins),
		IsClockPin: make([]bool, nPins),
		IsClockNet: make([]bool, len(d.Nets)),
		IsStart:    make([]bool, nPins),
		IsNetSink:  make([]bool, nPins),
		IsCellOut:  make([]bool, nPins),
		NetOfSink:  make([]int32, nPins),
		EndpointOf: make([]int32, nPins),
		Level:      make([]int32, nPins),
		SinkCap:    make([]float64, nPins),
	}
	for pi := range d.Pins {
		g.NetOfSink[pi], g.EndpointOf[pi] = -1, -1
	}

	// Classify pins.
	for pi := range d.Pins {
		pin := &d.Pins[pi]
		cell := &d.Cells[pin.Cell]
		if cell.Class == netlist.ClassPort || cell.Lib < 0 {
			continue
		}
		lp := &d.Lib.Cells[cell.Lib].Pins[pin.LibPin]
		if lp.IsClock {
			g.IsClockPin[pi] = true
		}
		if lp.Dir == liberty.DirInput {
			g.SinkCap[pi] = lp.Cap
		}
	}
	for ci := range d.Cells {
		cell := &d.Cells[ci]
		if cell.Class != netlist.ClassPort {
			continue
		}
		// Output ports sink their net and present the SDC load.
		pid := cell.Pins[0]
		if d.Pins[pid].Dir == netlist.PinInput && con != nil {
			g.SinkCap[pid] = con.PortLoadOf(cell.Name)
		}
	}

	// Clock nets: every sink is a clock pin (and there is at least one).
	for ni := range d.Nets {
		net := &d.Nets[ni]
		clockSinks, dataSinks := 0, 0
		for _, pid := range net.Pins {
			if int32(pid) == net.Driver || d.Pins[pid].Dir == netlist.PinOutput {
				continue
			}
			if g.IsClockPin[pid] {
				clockSinks++
			} else {
				dataSinks++
			}
		}
		if clockSinks > 0 && dataSinks == 0 {
			g.IsClockNet[ni] = true
		} else if clockSinks > 0 && dataSinks > 0 {
			return nil, fmt.Errorf("timing: net %q mixes clock and data sinks (unsupported)", net.Name)
		}
	}
	if con != nil && con.ClockPort != "" {
		ci := d.CellByName(con.ClockPort)
		if ci < 0 {
			return nil, fmt.Errorf("timing: SDC clock port %q not found", con.ClockPort)
		}
		if netID := d.Pins[d.Cells[ci].Pins[0]].Net; netID >= 0 {
			g.IsClockNet[netID] = true
		}
	}

	// Cell arcs and checks.
	for ci := range d.Cells {
		cell := &d.Cells[ci]
		if cell.Lib < 0 {
			continue
		}
		lc := &d.Lib.Cells[cell.Lib]
		for ai := range lc.Arcs {
			arc := &lc.Arcs[ai]
			fromPin := cell.Pins[arc.From]
			toPin := cell.Pins[arc.To]
			if arc.IsCheck() {
				g.Checks = append(g.Checks, CheckRef{DataPin: toPin, ClkPin: fromPin, Arc: arc})
				continue
			}
			g.ArcsInto[toPin] = append(g.ArcsInto[toPin], ArcRef{FromPin: fromPin, Arc: arc})
			g.IsCellOut[toPin] = true
		}
	}

	// Start pins: PI port pins driving a non-clock net, and all clock pins.
	for ci := range d.Cells {
		cell := &d.Cells[ci]
		if cell.Class != netlist.ClassPort {
			continue
		}
		pid := cell.Pins[0]
		if d.Pins[pid].Dir == netlist.PinOutput {
			if netID := d.Pins[pid].Net; netID >= 0 && !g.IsClockNet[netID] {
				g.IsStart[pid] = true
			}
		}
	}
	for pi := range d.Pins {
		if g.IsClockPin[pi] {
			g.IsStart[int32(pi)] = true
		}
	}

	// Net sinks on non-clock nets.
	for ni := range d.Nets {
		if g.IsClockNet[ni] {
			continue
		}
		net := &d.Nets[ni]
		if net.Driver < 0 {
			continue
		}
		for _, pid := range net.Pins {
			if pid != net.Driver {
				g.IsNetSink[pid] = true
				g.NetOfSink[pid] = int32(ni)
			}
		}
	}

	// Endpoints: FF data pins with setup checks, and PO ports.
	for i := range g.Checks {
		chk := &g.Checks[i]
		ei := g.EndpointOf[chk.DataPin]
		if ei < 0 {
			ei = int32(len(g.Endpoints))
			g.EndpointOf[chk.DataPin] = ei
			g.Endpoints = append(g.Endpoints, Endpoint{Pin: chk.DataPin, Kind: EndFFData})
		}
		switch chk.Arc.Kind {
		case liberty.ArcSetup:
			g.Endpoints[ei].Setup = chk
		case liberty.ArcHold:
			g.Endpoints[ei].Hold = chk
		}
	}
	for ci := range d.Cells {
		cell := &d.Cells[ci]
		if cell.Class != netlist.ClassPort {
			continue
		}
		pid := cell.Pins[0]
		if d.Pins[pid].Dir == netlist.PinInput && d.Pins[pid].Net >= 0 && !g.IsClockNet[d.Pins[pid].Net] {
			g.EndpointOf[pid] = int32(len(g.Endpoints))
			g.Endpoints = append(g.Endpoints, Endpoint{Pin: pid, Kind: EndPort, PortName: cell.Name})
		}
	}

	if err := g.levelize(); err != nil {
		return nil, err
	}
	return g, nil
}

// levelize assigns topological levels with Kahn's algorithm over the pin
// graph (net arcs + cell arcs) and groups pins by level.
func (g *Graph) levelize() error {
	d := g.D
	nPins := len(d.Pins)
	indeg := make([]int32, nPins) //dtgp:index domain=pin
	// Fan-out adjacency.
	fanout := make([][]int32, nPins) //dtgp:index domain=pin
	addEdge := func(u, v int32) {
		fanout[u] = append(fanout[u], v)
		indeg[v]++
	}
	for ni := range d.Nets {
		if g.IsClockNet[ni] {
			continue
		}
		net := &d.Nets[ni]
		if net.Driver < 0 {
			continue
		}
		for _, pid := range net.Pins {
			if pid != net.Driver {
				addEdge(net.Driver, pid)
			}
		}
	}
	for pi := range g.ArcsInto {
		for _, ar := range g.ArcsInto[pi] {
			addEdge(ar.FromPin, int32(pi))
		}
	}

	for i := range g.Level {
		g.Level[i] = -1
	}
	var queue []int32 //dtgp:index elem=pin
	for pi := int32(0); pi < int32(nPins); pi++ {
		if indeg[pi] == 0 {
			// Only pins that can ever carry an arrival matter; isolated
			// pins (e.g. unconnected inputs) still enter at level 0 so the
			// ordering below is total over reachable pins.
			g.Level[pi] = 0
			queue = append(queue, pi)
		}
	}
	processed := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		processed++
		for _, v := range fanout[u] {
			if l := g.Level[u] + 1; l > g.Level[v] {
				g.Level[v] = l
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if processed != nPins {
		return fmt.Errorf("timing: combinational loop detected (%d pins stuck)", countStuck(indeg))
	}
	maxLevel := int32(0)
	for _, l := range g.Level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	g.Levels = make([][]int32, maxLevel+1)
	for pi := int32(0); pi < int32(nPins); pi++ {
		if g.Level[pi] >= 0 {
			g.Levels[g.Level[pi]] = append(g.Levels[g.Level[pi]], pi)
		}
	}
	return nil
}

func countStuck(indeg []int32) int {
	n := 0
	for _, d := range indeg {
		if d > 0 {
			n++
		}
	}
	return n
}

// MaxLevel returns the depth of the timing graph (the ">300 layers" the
// paper's §3.1 analogy refers to).
func (g *Graph) MaxLevel() int { return len(g.Levels) - 1 }

// Period returns the clock period, or +Inf when unconstrained.
//
//dtgp:hotpath
func (g *Graph) Period() float64 {
	if g.Con == nil || g.Con.Period <= 0 {
		return inf
	}
	return g.Con.Period
}

// ClockSlew returns the slew of the ideal clock at register clock pins.
//
//dtgp:hotpath
func (g *Graph) ClockSlew() float64 {
	if g.Con == nil {
		return 20
	}
	return g.Con.ClockSlew
}

// StartArrival returns the fixed arrival and slew of a start pin: the ideal
// clock at register clock pins, the SDC input delay and slew at primary
// inputs.
//
//dtgp:index pid=pin
func (g *Graph) StartArrival(pid int32) (at, slew float64) {
	if g.IsClockPin[pid] {
		return 0, g.ClockSlew()
	}
	if g.Con == nil {
		return 0, 30
	}
	name := g.D.Cells[g.D.Pins[pid].Cell].Name
	return g.Con.InputDelayOf(name), g.Con.InputSlewOf(name)
}

// RequiredLate returns the setup required time of endpoint ep's tr
// transition arriving with the given data slew: the period minus the setup
// constraint at register data pins, minus the output delay at ports, and
// +Inf at registers without a setup check.
//
//dtgp:hotpath
func (g *Graph) RequiredLate(ep *Endpoint, tr Transition, slew float64) float64 {
	switch {
	case ep.Kind == EndPort:
		od := 0.0
		if g.Con != nil {
			od = g.Con.OutputDelayOf(ep.PortName)
		}
		return g.Period() - od
	case ep.Setup != nil:
		return g.Period() - ConstraintTable(ep.Setup.Arc, tr).Eval(g.ClockSlew(), slew)
	}
	return inf
}

// maxTransition returns the library's max-transition design rule, which
// caps propagated slews, or +Inf without one.
//
//dtgp:hotpath
func (g *Graph) maxTransition() float64 {
	if mt := g.D.Lib.DefaultMaxTransition; mt > 0 {
		return mt
	}
	return inf
}

// DelayTables returns the delay and output-transition LUTs of a cell arc
// producing the given output transition.
//
//dtgp:hotpath
func DelayTables(arc *liberty.TimingArc, out Transition) (delay, trans *liberty.LUT) {
	if out == Rise {
		return arc.CellRise, arc.RiseTransition
	}
	return arc.CellFall, arc.FallTransition
}

// InputTransitions returns the input transitions that feed an output
// transition under the arc's unateness; -1 marks an unused slot.
//
//dtgp:hotpath
func InputTransitions(u liberty.Unateness, out Transition) [2]int8 {
	switch u {
	case liberty.PositiveUnate:
		return [2]int8{int8(out), -1}
	case liberty.NegativeUnate:
		return [2]int8{int8(1 - out), -1}
	default:
		return [2]int8{0, 1}
	}
}

// ConstraintTable returns a setup or hold check's constraint LUT for the
// given data transition.
//
//dtgp:hotpath
func ConstraintTable(arc *liberty.TimingArc, dataTr Transition) *liberty.LUT {
	if dataTr == Rise {
		return arc.RiseConstraint
	}
	return arc.FallConstraint
}
