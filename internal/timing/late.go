package timing

import (
	"math"

	"dtgp/internal/netlist"
	"dtgp/internal/parallel"
)

// LateState is the exact late-mode (setup) analysis of one placement:
// arrival and slew at every (pin, transition), required times, endpoint
// setup slacks and WNS/TNS. Result (a from-scratch analysis) and
// Incremental (a maintained one) both embed it and change it only through
// the kernels below, so each late timing equation has one implementation:
// arriveNetSink (Eq. 9), arriveCellOut (Eq. 11 with exact max), require
// (required times) and setupSlacks (Eq. 2).
type LateState struct {
	G    *Graph
	Nets []NetState //dtgp:index domain=net
	// Wires is the pin-indexed view of the Nets' Elmore results that the
	// kernels read.
	Wires Wires

	// ATLate and SlewLate are the late arrival and slew, indexed with TIdx;
	// Valid marks the nodes an arrival reaches.
	ATLate, SlewLate []float64 //dtgp:index domain=tnode
	Valid            []bool    //dtgp:index domain=tnode
	// RATLate is the setup required time, +Inf where no constrained
	// endpoint lies downstream.
	RATLate []float64 //dtgp:index domain=tnode

	// EndpointSetup is the setup slack per endpoint (min over transitions),
	// +Inf for unconstrained endpoints.
	EndpointSetup []float64 //dtgp:index domain=endp
	// WNS is the minimum endpoint setup slack and TNS sums the negative ones
	// (the paper's Eq. 2).
	WNS, TNS float64

	// derate scales net and cell arc delays (set_timing_derate -late).
	derate float64
}

// analyze allocates the state over the given net states, runs their Elmore
// forward passes into its view, and runs the late analysis from scratch:
// start arrivals, the arrival kernels level by level, the required-time
// kernel from the deepest level up, then the endpoint slacks. Pins within
// one level read only shallower arrivals and deeper required times, so
// each level runs on the worker pool.
func (s *LateState) analyze(g *Graph, nets []NetState) {
	nPins := len(g.D.Pins)
	n2 := 2 * nPins
	*s = LateState{
		G:    g,
		Nets: nets,
		Wires: NewWires(make([]int32, nPins), make([]float64, nPins),
			make([]float64, nPins), make([]float64, nPins)),
		ATLate:        make([]float64, n2),
		SlewLate:      make([]float64, n2),
		Valid:         make([]bool, n2),
		RATLate:       make([]float64, n2),
		EndpointSetup: make([]float64, len(g.Endpoints)),
		derate:        1,
	}
	if g.Con != nil && g.Con.DerateLate > 0 {
		s.derate = g.Con.DerateLate
	}
	ForwardAll(g, nets, &s.Wires)
	for i := range s.ATLate {
		s.ATLate[i] = -inf
		s.RATLate[i] = inf
	}
	for pi := range g.D.Pins {
		if pid := int32(pi); g.IsStart[pid] {
			at, slew := g.StartArrival(pid)
			for tr := Rise; tr <= Fall; tr++ {
				s.set(TIdx(pid, tr), at, slew, 0)
			}
		}
	}
	// Each pin evaluates several LUTs, so even short levels are worth
	// fanning out (CostHeavy in the dispatch cost model).
	for _, level := range g.Levels {
		parallel.ForCost(len(level), parallel.CostHeavy, func(i int) {
			switch pid := level[i]; {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				s.arriveNetSink(pid, 0)
			case g.IsCellOut[pid]:
				s.arriveCellOut(pid, 0)
			}
		})
	}
	for li := len(g.Levels) - 1; li >= 0; li-- {
		level := g.Levels[li]
		parallel.ForCost(len(level), parallel.CostHeavy, func(i int) { s.require(level[i], 0) })
	}
	s.setupSlacks()
}

// set stores a late arrival and slew at node v and reports whether v was
// unreached before or either value moved by more than eps.
//
//dtgp:hotpath
//dtgp:index v=tnode
func (s *LateState) set(v int32, at, slew, eps float64) bool {
	changed := !s.Valid[v] || math.Abs(at-s.ATLate[v]) > eps || math.Abs(slew-s.SlewLate[v]) > eps
	s.ATLate[v], s.SlewLate[v], s.Valid[v] = at, slew, true
	return changed
}

// arriveNetSink applies the net arc (Eq. 9): AT(v) = AT(u) + Delay(v),
// Slew(v) = sqrt(Slew(u)² + Impulse(v)²). Like arriveCellOut it reports
// whether the pin's arrival or slew moved by more than eps.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *LateState) arriveNetSink(pid int32, eps float64) bool {
	w := &s.Wires
	driver := w.Driver[pid]
	if driver < 0 {
		return false
	}
	delay := w.Delay[pid] * s.derate
	impSq := w.ImpulseSq[pid]
	changed := false
	for tr := Rise; tr <= Fall; tr++ {
		u := TIdx(driver, tr)
		if !s.Valid[u] {
			continue
		}
		slew := math.Sqrt(s.SlewLate[u]*s.SlewLate[u] + impSq)
		changed = s.set(TIdx(pid, tr), s.ATLate[u]+delay, slew, eps) || changed
	}
	return changed
}

// arriveCellOut applies every cell arc into an output pin (Eq. 11 with the
// exact max instead of LSE); the library's max-transition rule caps the
// output slew.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *LateState) arriveCellOut(pid int32, eps float64) bool {
	g := s.G
	load := s.Wires.Load[pid]
	maxTr := g.maxTransition()
	changed := false
	for outTr := Rise; outTr <= Fall; outTr++ {
		at, slew := -inf, -inf
		reached := false
		for ai := range g.ArcsInto[pid] {
			ar := &g.ArcsInto[pid][ai]
			dl, tl := DelayTables(ar.Arc, outTr)
			for _, inTr := range InputTransitions(ar.Arc.Unate, outTr) {
				if inTr < 0 {
					continue
				}
				u := TIdx(ar.FromPin, Transition(inTr))
				if !s.Valid[u] {
					continue
				}
				reached = true
				if a := s.ATLate[u] + dl.Eval(s.SlewLate[u], load)*s.derate; a > at {
					at = a
				}
				if sl := tl.Eval(s.SlewLate[u], load); sl > slew {
					slew = sl
				}
			}
		}
		if !reached {
			continue
		}
		if slew > maxTr {
			slew = maxTr
		}
		changed = s.set(TIdx(pid, outTr), at, slew, eps) || changed
	}
	return changed
}

// require re-evaluates the setup required time of pid: its endpoint seed
// (Graph.RequiredLate), then the min over its fanouts' pulls, across the
// Elmore delays when pid drives a net and across the arc delays when pid
// is a cell input. The fanouts sit at deeper levels, so their required
// times are final when pid is evaluated, and the exact min does not depend
// on pull order. Reports whether either transition moved by more than eps.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *LateState) require(pid int32, eps float64) bool {
	g := s.G
	d := g.D
	var rat [2]float64
	ei := g.EndpointOf[pid]
	for tr := Rise; tr <= Fall; tr++ {
		rat[tr] = inf
		if t := TIdx(pid, tr); ei >= 0 && s.Valid[t] {
			rat[tr] = g.RequiredLate(&g.Endpoints[ei], tr, s.SlewLate[t])
		}
	}

	w := &s.Wires
	pin := &d.Pins[pid]
	if pin.Dir == netlist.PinOutput && pin.Net >= 0 {
		for _, q := range d.Nets[pin.Net].Pins {
			if w.Driver[q] != pid {
				continue // pid itself, or the net is untimed
			}
			delay := w.Delay[q]
			for tr := Rise; tr <= Fall; tr++ {
				vt := TIdx(q, tr)
				if !s.Valid[vt] {
					continue
				}
				if v := s.RATLate[vt] - delay*s.derate; v < rat[tr] {
					rat[tr] = v
				}
			}
		}
	}

	if cell := &d.Cells[pin.Cell]; cell.Lib >= 0 {
		lc := &d.Lib.Cells[cell.Lib]
		for ai := range lc.Arcs {
			arc := &lc.Arcs[ai]
			if arc.IsCheck() || cell.Pins[arc.From] != pid {
				continue
			}
			vPin := cell.Pins[arc.To]
			load := w.Load[vPin]
			for outTr := Rise; outTr <= Fall; outTr++ {
				vt := TIdx(vPin, outTr)
				if !s.Valid[vt] {
					continue
				}
				dl, _ := DelayTables(arc, outTr)
				for _, inTr := range InputTransitions(arc.Unate, outTr) {
					if inTr < 0 {
						continue
					}
					ut := TIdx(pid, Transition(inTr))
					if !s.Valid[ut] {
						continue
					}
					if v := s.RATLate[vt] - dl.Eval(s.SlewLate[ut], load)*s.derate; v < rat[inTr] {
						rat[inTr] = v
					}
				}
			}
		}
	}

	changed := false
	for tr := Rise; tr <= Fall; tr++ {
		t := TIdx(pid, tr)
		// Inf→Inf compares as NaN and reads unchanged; Inf→finite (or back)
		// is +Inf and propagates.
		if math.Abs(rat[tr]-s.RATLate[t]) > eps {
			changed = true
		}
		s.RATLate[t] = rat[tr]
	}
	return changed
}

// setupSlacks derives the endpoint setup slacks and WNS/TNS from the
// current arrival and required times.
//
//dtgp:hotpath
func (s *LateState) setupSlacks() {
	g := s.G
	for ei := range g.Endpoints {
		slack := inf
		for tr := Rise; tr <= Fall; tr++ {
			if v := s.PinSlack(g.Endpoints[ei].Pin, tr); v < slack {
				slack = v
			}
		}
		s.EndpointSetup[ei] = slack
	}
	s.WNS, s.TNS = worstAndTotal(s.EndpointSetup)
}

// worstAndTotal is Eq. 2 over per-endpoint slacks, skipping unconstrained
// (+Inf) endpoints: the worst slack, 0 when no endpoint is constrained, and
// the sum of the negative ones.
//
//dtgp:hotpath
func worstAndTotal(slacks []float64) (wns, tns float64) {
	wns = inf
	constrained := false
	for _, slack := range slacks {
		if math.IsInf(slack, 1) {
			continue
		}
		constrained = true
		if slack < wns {
			wns = slack
		}
		if slack < 0 {
			tns += slack
		}
	}
	if !constrained {
		wns = 0
	}
	return wns, tns
}

// Graph returns the timing graph the state was computed over
// (netweight.SlackSource).
func (s *LateState) Graph() *Graph { return s.G }

// WorstSlack returns the setup WNS (netweight.SlackSource).
func (s *LateState) WorstSlack() float64 { return s.WNS }

// PinSlack returns the setup slack at a (pin, transition), +Inf when the
// pin carries no constrained arrival (netweight.SlackSource).
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *LateState) PinSlack(pid int32, tr Transition) float64 {
	t := TIdx(pid, tr)
	if !s.Valid[t] || math.IsInf(s.RATLate[t], 1) {
		return inf
	}
	return s.RATLate[t] - s.ATLate[t]
}
