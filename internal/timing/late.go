package timing

import (
	"math"

	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
	"dtgp/internal/parallel"
)

// LateState is the exact late-mode (setup) analysis of one placement:
// arrival and slew at every (pin, transition), required times, endpoint
// setup slacks and WNS/TNS. Result (a from-scratch analysis) and
// Incremental (one re-swept after each move batch) both embed it and change
// it only through the kernels below, so each late timing equation has one
// implementation: arriveNetSink (Eq. 9), arriveCellOut (Eq. 11 with exact
// max), require (required times) and setupSlacks (Eq. 2).
type LateState struct {
	G    *Graph
	Nets *NetStates
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
	// arriveFn and requireFn run the arrival and required-time kernels
	// over the pins of level; analyze stores them once, so that a sweep
	// allocates nothing.
	level               []int32 //dtgp:index elem=pin
	arriveFn, requireFn func(i int)
}

// analyze allocates the state over the given net states, runs their Elmore
// forward passes into its view, and sweeps the late analysis from scratch.
func (s *LateState) analyze(g *Graph, nets *NetStates) {
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
	s.arriveFn = func(i int) {
		switch pid := s.level[i]; {
		case g.IsStart[pid]:
		case g.IsNetSink[pid]:
			s.arriveNetSink(pid)
		case g.IsCellOut[pid]:
			s.arriveCellOut(pid)
		}
	}
	s.requireFn = func(i int) { s.require(s.level[i]) }
	ForwardAll(g, nets, &s.Wires, NewBuildScratch())
	s.sweep()
}

// sweep re-runs the late analysis over the current wire view: start
// arrivals, the arrival kernels level by level, the required-time kernel
// from the deepest level up, then the endpoint slacks. Every node is reset
// first, so the result depends on the wire view alone and equals a
// from-scratch analysis of it bit for bit. Pins within one level read only
// shallower arrivals and deeper required times, and each pin evaluates
// several LUTs, so every level runs on the worker pool (CostHeavy in the
// dispatch cost model).
//
//dtgp:hotpath
func (s *LateState) sweep() {
	g := s.G
	for i := range s.ATLate {
		s.ATLate[i], s.SlewLate[i], s.Valid[i], s.RATLate[i] = -inf, 0, false, inf
	}
	for pi := range g.D.Pins {
		if pid := int32(pi); g.IsStart[pid] {
			at, slew := g.StartArrival(pid)
			for tr := Rise; tr <= Fall; tr++ {
				s.set(TIdx(pid, tr), at, slew)
			}
		}
	}
	for _, level := range g.Levels {
		s.level = level
		parallel.ForCost(len(level), parallel.CostHeavy, s.arriveFn)
	}
	for li := len(g.Levels) - 1; li >= 0; li-- {
		s.level = g.Levels[li]
		parallel.ForCost(len(s.level), parallel.CostHeavy, s.requireFn)
	}
	s.setupSlacks()
}

// set stores a late arrival and slew at node v and marks it reached.
//
//dtgp:hotpath
//dtgp:index v=tnode
func (s *LateState) set(v int32, at, slew float64) {
	s.ATLate[v], s.SlewLate[v], s.Valid[v] = at, slew, true
}

// arriveNetSink applies the net arc (Eq. 9): AT(v) = AT(u) + Delay(v),
// Slew(v) = sqrt(Slew(u)² + Impulse(v)²).
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *LateState) arriveNetSink(pid int32) {
	w := &s.Wires
	driver := w.Driver[pid]
	if driver < 0 {
		return
	}
	delay := w.Delay[pid] * s.derate
	impSq := w.ImpulseSq[pid]
	for tr := Rise; tr <= Fall; tr++ {
		u := TIdx(driver, tr)
		if !s.Valid[u] {
			continue
		}
		slew := math.Sqrt(s.SlewLate[u]*s.SlewLate[u] + impSq)
		s.set(TIdx(pid, tr), s.ATLate[u]+delay, slew)
	}
}

// arriveCellOut applies the cell-arc candidates of an output pin (Eq. 11
// with the exact max instead of LSE); the library's max-transition rule
// caps the output slew. One query per pin locates the load once on a
// shared load axis and each candidate's slew once for both of its tables.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *LateState) arriveCellOut(pid int32) {
	g := s.G
	var q liberty.Query
	q.SetY(s.Wires.Load[pid])
	maxTr := g.maxTransition()
	for outTr := Rise; outTr <= Fall; outTr++ {
		v := TIdx(pid, outTr)
		at, slew := -inf, -inf
		reached := false
		for c := g.CandOff[v]; c < g.CandOff[v+1]; c++ {
			u := g.CandIn[c]
			if !s.Valid[u] {
				continue
			}
			reached = true
			q.SetX(s.SlewLate[u])
			if a := s.ATLate[u] + q.Eval(g.LUTs[g.CandDelay[c]])*s.derate; a > at {
				at = a
			}
			if sl := q.Eval(g.LUTs[g.CandTrans[c]]); sl > slew {
				slew = sl
			}
		}
		if !reached {
			continue
		}
		if slew > maxTr {
			slew = maxTr
		}
		s.set(v, at, slew)
	}
}

// require re-evaluates the setup required time of pid: its endpoint seed
// (Graph.RequiredLate), then the min over its fanouts' pulls, across the
// Elmore delays when pid drives a net and across the candidates that read
// it when pid is a cell input. The fanouts sit at deeper levels, so their
// required times are final when pid is evaluated, and the exact min does
// not depend on pull order.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (s *LateState) require(pid int32) {
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

	for tr := Rise; tr <= Fall; tr++ {
		u := TIdx(pid, tr)
		for k := g.FanOff[u]; k < g.FanOff[u+1]; k++ {
			c := g.FanCand[k]
			vt := g.CandOut[c]
			if !s.Valid[u] || !s.Valid[vt] {
				continue
			}
			if v := s.RATLate[vt] - g.LUTs[g.CandDelay[c]].Eval(s.SlewLate[u], w.Load[vt/2])*s.derate; v < rat[tr] {
				rat[tr] = v
			}
		}
		s.RATLate[u] = rat[tr]
	}
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
