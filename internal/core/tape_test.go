package core

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/rctree"
	"dtgp/internal/timing"
)

// tapeSlot is one cell-arc candidate as the tape records it.
type tapeSlot struct {
	in               int32
	wAT, wSlew       float64
	delayDS, delayDL float64
	slewDS, slewDL   float64
}

// recordedSlots reads tnode v's live slots off the tape.
func recordedSlots(tm *Timer, v int32) []tapeSlot {
	var out []tapeSlot
	for k := tm.G.CandOff[v]; k < tm.G.CandOff[v+1] && tm.slotIn[k] >= 0; k++ {
		out = append(out, tapeSlot{tm.slotIn[k], tm.slotWAT[k], tm.slotWSlew[k],
			tm.slotDelayDS[k], tm.slotDelayDL[k], tm.slotSlewDS[k], tm.slotSlewDL[k]})
	}
	return out
}

// lutSlots recomputes tnode v's candidates from the library cell's arcs
// and LUTs at the timer's current forward state: valid inputs in library
// arc order, then input transition, the stable LSE weights of Eq. 11 and
// the slopes of both tables at (input slew, load).
func lutSlots(tm *Timer, pid int32, outTr timing.Transition) []tapeSlot {
	g := tm.G
	load := 0.0
	if net := g.D.Pins[pid].Net; net >= 0 && tm.Nets.Timed(net) {
		var rc rctree.Tree
		tm.Nets.RC(net, &rc)
		load = rc.Load[rc.Root]
	}
	var out []tapeSlot
	var cat, csl []float64
	cell := &g.D.Cells[g.D.Pins[pid].Cell]
	for _, arc := range g.D.Lib.Cells[cell.Lib].Arcs {
		if arc.IsCheck() || cell.Pins[arc.To] != pid {
			continue
		}
		dl, tl := arc.CellRise, arc.RiseTransition
		if outTr == timing.Fall {
			dl, tl = arc.CellFall, arc.FallTransition
		}
		for _, inTr := range timing.InputTransitions(arc.Unate, outTr) {
			if inTr < 0 {
				continue
			}
			u := timing.TIdx(cell.Pins[arc.From], timing.Transition(inTr))
			if !tm.Valid[u] {
				continue
			}
			d, dDds, dDdl := dl.EvalGrad(tm.Slew[u], load)
			s, dSds, dSdl := tl.EvalGrad(tm.Slew[u], load)
			out = append(out, tapeSlot{in: u, delayDS: dDds, delayDL: dDdl, slewDS: dSds, slewDL: dSdl})
			cat = append(cat, tm.AT[u]+d)
			csl = append(csl, s)
		}
	}
	atM, slM := math.Inf(-1), math.Inf(-1)
	for k := range out {
		if cat[k] > atM {
			atM = cat[k]
		}
		if csl[k] > slM {
			slM = csl[k]
		}
	}
	gamma := tm.Opts.Gamma
	var atZ, slZ float64
	for k := range out {
		atZ += math.Exp((cat[k] - atM) / gamma)
		slZ += math.Exp((csl[k] - slM) / gamma)
	}
	for k := range out {
		out[k].wAT = math.Exp((cat[k]-atM)/gamma) / atZ
		out[k].wSlew = math.Exp((csl[k]-slM)/gamma) / slZ
	}
	return out
}

// checkTape compares every cell-output tnode's recorded slots with the LUT
// recomputation, bitwise and including the slot count.
func checkTape(t *testing.T, tm *Timer, it int) {
	t.Helper()
	g := tm.G
	bits := math.Float64bits
	slots := 0
	for _, level := range g.Levels {
		for _, pid := range level {
			if g.IsStart[pid] || g.IsNetSink[pid] || !g.IsCellOut[pid] {
				continue
			}
			for tr := timing.Rise; tr <= timing.Fall; tr++ {
				v := timing.TIdx(pid, tr)
				got, want := recordedSlots(tm, v), lutSlots(tm, pid, tr)
				if len(got) != len(want) {
					t.Fatalf("eval %d: tnode %d records %d slots, the LUTs give %d candidates", it, v, len(got), len(want))
				}
				for k := range want {
					w, r := want[k], got[k]
					if r.in != w.in || bits(r.wAT) != bits(w.wAT) || bits(r.wSlew) != bits(w.wSlew) ||
						bits(r.delayDS) != bits(w.delayDS) || bits(r.delayDL) != bits(w.delayDL) ||
						bits(r.slewDS) != bits(w.slewDS) || bits(r.slewDL) != bits(w.slewDL) {
						t.Fatalf("eval %d: tnode %d slot %d is %+v, the LUTs give %+v", it, v, k, r, w)
					}
				}
				slots += len(want)
			}
		}
	}
	if slots == 0 {
		t.Fatalf("eval %d: no cell-arc candidates checked", it)
	}
}

// TestTapeMatchesLUTs checks the cell-arc tape that the reverse sweep
// replays against the tables it stands for: after the first evaluation, and
// after each evaluation with a few cells moving, every cell-output tnode
// must hold exactly its valid candidates in fan-in order, with the weights
// and the four slopes the LUTs give at the current forward state.
func TestTapeMatchesLUTs(t *testing.T) {
	g := makeTestBed(t, 400, 37)
	d := g.D
	tm := NewTimer(g, frozenOptions(80))
	rng := rand.New(rand.NewSource(37))
	for it := 0; it < 12; it++ {
		for moved := 0; it > 0 && moved < 5; {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 5
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 5
			moved++
		}
		tm.Evaluate(0.01, 0.0001)
		checkTape(t, tm, it)
	}
}
