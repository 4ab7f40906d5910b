package timing

import (
	"math"

	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
	"dtgp/internal/parallel"
)

var inf = math.Inf(1)

// Result holds a full exact STA of one placement snapshot: the late
// (setup) analysis shared with Incremental and, once a caller asks for it
// with AnalyzeHold, the early (hold) analysis that only a from-scratch
// analysis maintains.
type Result struct {
	LateState

	// Early arrival and slew per (pin, transition), over the late pass's
	// reachability (Valid), and the hold required times. Nil until
	// AnalyzeHold runs.
	ATEarly, SlewEarly []float64 //dtgp:index domain=tnode
	RATEarly           []float64 //dtgp:index domain=tnode

	// EndpointHold is the hold slack per endpoint (min over transitions),
	// +Inf for endpoints without hold checks; WNSHold and TNSHold are the
	// hold metrics. EndpointHold is nil until AnalyzeHold runs.
	EndpointHold     []float64 //dtgp:index domain=endp
	WNSHold, TNSHold float64

	// derateEarly scales arc delays per set_timing_derate -early.
	derateEarly float64
}

// Analyze runs exact late-mode STA: Steiner/RC construction, Elmore
// forward passes, level-by-level arrival propagation, required times and
// setup slacks. Hold slacks are computed only on request (AnalyzeHold).
// The net states it builds are dropped once their Elmore results are in
// the wire view (the result's Nets is nil): the analysis, the hold sweep
// and the path reports read only the view, and the net states are the
// largest part of a result's memory (about 70 MB at 200k cells). A caller
// that wants them builds them and calls AnalyzeWithNets.
func Analyze(g *Graph) *Result {
	r := AnalyzeWithNets(g, BuildNetStates(g))
	r.Nets = nil
	return r
}

// AnalyzeWithNets runs exact late-mode STA on pre-built net states, so
// callers that maintain Steiner trees incrementally can reuse them. It runs
// their Elmore forward passes (a pure function of each RC tree, so forward
// results the caller already holds are rewritten with the same bits).
func AnalyzeWithNets(g *Graph, nets *NetStates) *Result {
	r := &Result{}
	r.analyze(g, nets)
	return r
}

// AnalyzeHold runs the early (hold) analysis over the late one and fills
// in the hold fields: min arrival and slew level by level, hold required
// times max-pulled from the deepest level up, then the hold slacks. It
// reads the graph's constraints as they are when it runs.
func (r *Result) AnalyzeHold() {
	g := r.G
	n2 := 2 * len(g.D.Pins)
	r.ATEarly = make([]float64, n2)
	r.SlewEarly = make([]float64, n2)
	r.RATEarly = make([]float64, n2)
	r.EndpointHold = make([]float64, len(g.Endpoints))
	r.derateEarly = 1
	if g.Con != nil && g.Con.DerateEarly > 0 {
		r.derateEarly = g.Con.DerateEarly
	}
	for i := range r.ATEarly {
		r.ATEarly[i] = inf
		r.RATEarly[i] = -inf
	}
	for pi := range g.D.Pins {
		if pid := int32(pi); g.IsStart[pid] {
			at, slew := g.StartArrival(pid)
			for tr := Rise; tr <= Fall; tr++ {
				r.ATEarly[TIdx(pid, tr)], r.SlewEarly[TIdx(pid, tr)] = at, slew
			}
		}
	}
	for _, level := range g.Levels {
		parallel.ForCost(len(level), parallel.CostHeavy, func(i int) {
			switch pid := level[i]; {
			case g.IsStart[pid]:
			case g.IsNetSink[pid]:
				r.arriveNetSinkEarly(pid)
			case g.IsCellOut[pid]:
				r.arriveCellOutEarly(pid)
			}
		})
	}
	for li := len(g.Levels) - 1; li >= 0; li-- {
		level := g.Levels[li]
		parallel.ForCost(len(level), parallel.CostHeavy, func(i int) { r.requireEarly(level[i]) })
	}
	r.holdSlacks()
}

// arriveNetSinkEarly is arriveNetSink for the early arrival.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (r *Result) arriveNetSinkEarly(pid int32) {
	w := &r.Wires
	driver := w.Driver[pid]
	if driver < 0 {
		return
	}
	delay := w.Delay[pid] * r.derateEarly
	impSq := w.ImpulseSq[pid]
	for tr := Rise; tr <= Fall; tr++ {
		u, v := TIdx(driver, tr), TIdx(pid, tr)
		if !r.Valid[u] {
			continue
		}
		r.ATEarly[v] = r.ATEarly[u] + delay
		r.SlewEarly[v] = math.Sqrt(r.SlewEarly[u]*r.SlewEarly[u] + impSq)
	}
}

// arriveCellOutEarly is arriveCellOut for the early arrival: the exact min
// over the arc candidates.
//
//dtgp:hotpath
//dtgp:index pid=pin
func (r *Result) arriveCellOutEarly(pid int32) {
	g := r.G
	var q liberty.Query
	q.SetY(r.Wires.Load[pid])
	for outTr := Rise; outTr <= Fall; outTr++ {
		v := TIdx(pid, outTr)
		at, slew := inf, inf
		reached := false
		for c := g.CandOff[v]; c < g.CandOff[v+1]; c++ {
			u := g.CandIn[c]
			if !r.Valid[u] {
				continue
			}
			reached = true
			q.SetX(r.SlewEarly[u])
			if a := r.ATEarly[u] + q.Eval(g.LUTs[g.CandDelay[c]])*r.derateEarly; a < at {
				at = a
			}
			if sl := q.Eval(g.LUTs[g.CandTrans[c]]); sl < slew {
				slew = sl
			}
		}
		if !reached {
			continue
		}
		if maxTr := g.maxTransition(); slew > maxTr {
			slew = maxTr
		}
		r.ATEarly[v], r.SlewEarly[v] = at, slew
	}
}

// requireEarly is require for the hold required time: the hold-check seed,
// then the max over the fanouts' pulls.
//
//dtgp:hotpath
//dtgp:index u=pin
func (r *Result) requireEarly(u int32) {
	g := r.G
	d := g.D
	if ei := g.EndpointOf[u]; ei >= 0 && g.Endpoints[ei].Hold != nil {
		for tr := Rise; tr <= Fall; tr++ {
			if t := TIdx(u, tr); r.Valid[t] {
				r.RATEarly[t] = ConstraintTable(g.Endpoints[ei].Hold.Arc, tr).Eval(g.ClockSlew(), r.SlewEarly[t])
			}
		}
	}

	w := &r.Wires
	pin := &d.Pins[u]
	if pin.Dir == netlist.PinOutput && pin.Net >= 0 {
		for _, q := range d.Nets[pin.Net].Pins {
			if w.Driver[q] != u {
				continue // u itself, or the net is untimed
			}
			delay := w.Delay[q]
			for tr := Rise; tr <= Fall; tr++ {
				ut, vt := TIdx(u, tr), TIdx(q, tr)
				if !r.Valid[vt] {
					continue
				}
				if v := r.RATEarly[vt] - delay*r.derateEarly; v > r.RATEarly[ut] {
					r.RATEarly[ut] = v
				}
			}
		}
	}

	for tr := Rise; tr <= Fall; tr++ {
		ut := TIdx(u, tr)
		for k := g.FanOff[ut]; k < g.FanOff[ut+1]; k++ {
			c := g.FanCand[k]
			vt := g.CandOut[c]
			if !r.Valid[ut] || !r.Valid[vt] {
				continue
			}
			if v := r.RATEarly[vt] - g.LUTs[g.CandDelay[c]].Eval(r.SlewEarly[ut], w.Load[vt/2])*r.derateEarly; v > r.RATEarly[ut] {
				r.RATEarly[ut] = v
			}
		}
	}
}

// holdSlacks derives the endpoint hold slacks and the hold WNS/TNS.
func (r *Result) holdSlacks() {
	g := r.G
	for ei := range g.Endpoints {
		hold := inf
		for tr := Rise; tr <= Fall; tr++ {
			t := TIdx(g.Endpoints[ei].Pin, tr)
			if r.Valid[t] && !math.IsInf(r.RATEarly[t], -1) {
				if s := r.ATEarly[t] - r.RATEarly[t]; s < hold {
					hold = s
				}
			}
		}
		r.EndpointHold[ei] = hold
	}
	r.WNSHold, r.TNSHold = worstAndTotal(r.EndpointHold)
}

// Finite reports whether the setup WNS/TNS, and the hold WNS/TNS when
// AnalyzeHold has run, are all finite (a design without constrained
// endpoints reports 0). A NaN or Inf here means a
// non-finite value — a degenerate library table or constraint, say —
// reached an endpoint slack; callers (dtgp-sta, the run supervisor) must
// treat the result as poisoned rather than report it. It is not a general
// input check: a net whose pins have non-finite coordinates gets no Steiner
// tree and is left untimed, so its poison never reaches a slack. The
// Bookshelf loaders reject such coordinates instead.
func (r *Result) Finite() bool {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	return finite(r.WNS) && finite(r.TNS) &&
		(r.EndpointHold == nil || finite(r.WNSHold) && finite(r.TNSHold))
}
