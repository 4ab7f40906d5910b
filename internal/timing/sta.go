package timing

import (
	"math"

	"dtgp/internal/netlist"
	"dtgp/internal/parallel"
)

var inf = math.Inf(1)

// Result holds a full exact STA of one placement snapshot: the late
// (setup) analysis shared with Incremental, plus the early (hold) analysis
// that only a from-scratch analysis maintains.
type Result struct {
	LateState

	// Early arrival and slew per (pin, transition), over the late pass's
	// reachability (Valid), and the hold required times.
	ATEarly, SlewEarly []float64 //dtgp:index domain=tnode
	RATEarly           []float64 //dtgp:index domain=tnode

	// EndpointHold is the hold slack per endpoint (min over transitions),
	// +Inf for endpoints without hold checks; WNSHold and TNSHold are the
	// hold metrics.
	EndpointHold     []float64 //dtgp:index domain=endp
	WNSHold, TNSHold float64

	// derateEarly scales arc delays per set_timing_derate -early.
	derateEarly float64
}

// Analyze runs exact STA: Steiner/RC construction, Elmore forward passes,
// level-by-level arrival propagation, required times and slacks.
func Analyze(g *Graph) *Result {
	return AnalyzeWithNets(g, BuildNetStates(g))
}

// AnalyzeWithNets runs exact STA on pre-built net states, so callers that
// maintain Steiner trees incrementally can reuse them. It runs their Elmore
// forward passes (a pure function of each RC tree, so forward results the
// caller already holds are rewritten with the same bits).
func AnalyzeWithNets(g *Graph, nets []NetState) *Result {
	n2 := 2 * len(g.D.Pins)
	r := &Result{
		ATEarly:      make([]float64, n2),
		SlewEarly:    make([]float64, n2),
		RATEarly:     make([]float64, n2),
		EndpointHold: make([]float64, len(g.Endpoints)),
		derateEarly:  1,
	}
	if g.Con != nil && g.Con.DerateEarly > 0 {
		r.derateEarly = g.Con.DerateEarly
	}
	r.analyze(g, nets)
	r.analyzeEarly()
	return r
}

// analyzeEarly runs the early (hold) analysis after the late one: min
// arrival and slew level by level, hold required times max-pulled from the
// deepest level up, then the hold slacks.
func (r *Result) analyzeEarly() {
	g := r.G
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
	load := r.Wires.Load[pid]
	for outTr := Rise; outTr <= Fall; outTr++ {
		at, slew := inf, inf
		reached := false
		for ai := range g.ArcsInto[pid] {
			ar := &g.ArcsInto[pid][ai]
			dl, tl := DelayTables(ar.Arc, outTr)
			for _, inTr := range InputTransitions(ar.Arc.Unate, outTr) {
				if inTr < 0 {
					continue
				}
				u := TIdx(ar.FromPin, Transition(inTr))
				if !r.Valid[u] {
					continue
				}
				reached = true
				if a := r.ATEarly[u] + dl.Eval(r.SlewEarly[u], load)*r.derateEarly; a < at {
					at = a
				}
				if sl := tl.Eval(r.SlewEarly[u], load); sl < slew {
					slew = sl
				}
			}
		}
		if !reached {
			continue
		}
		if maxTr := g.maxTransition(); slew > maxTr {
			slew = maxTr
		}
		r.ATEarly[TIdx(pid, outTr)], r.SlewEarly[TIdx(pid, outTr)] = at, slew
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

	cell := &d.Cells[pin.Cell]
	if cell.Lib < 0 {
		return
	}
	lc := &d.Lib.Cells[cell.Lib]
	for ai := range lc.Arcs {
		arc := &lc.Arcs[ai]
		if arc.IsCheck() || cell.Pins[arc.From] != u {
			continue
		}
		vPin := cell.Pins[arc.To]
		load := w.Load[vPin]
		for outTr := Rise; outTr <= Fall; outTr++ {
			vt := TIdx(vPin, outTr)
			if !r.Valid[vt] {
				continue
			}
			dl, _ := DelayTables(arc, outTr)
			for _, inTr := range InputTransitions(arc.Unate, outTr) {
				if inTr < 0 {
					continue
				}
				ut := TIdx(u, Transition(inTr))
				if !r.Valid[ut] {
					continue
				}
				if v := r.RATEarly[vt] - dl.Eval(r.SlewEarly[ut], load)*r.derateEarly; v > r.RATEarly[ut] {
					r.RATEarly[ut] = v
				}
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

// Finite reports whether the setup and hold WNS/TNS are all finite (a design
// without constrained endpoints reports 0). A NaN or Inf here means a
// non-finite value — a degenerate library table or constraint, say —
// reached an endpoint slack; callers (dtgp-sta, the run supervisor) must
// treat the result as poisoned rather than report it. It is not a general
// input check: a net whose pins have non-finite coordinates gets no Steiner
// tree and is left untimed, so its poison never reaches a slack. The
// Bookshelf loaders reject such coordinates instead.
func (r *Result) Finite() bool {
	for _, x := range [...]float64{r.WNS, r.TNS, r.WNSHold, r.TNSHold} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
