package wirelength

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/netlist"
)

// evaluateOracle is the reference for Evaluate: every net runs the per-axis
// kernel twice, and each run gathers the net's pins through PinPos itself.
// Nets run serially; the per-net totals and the pin-to-cell scatter keep
// Evaluate's order.
func (m *Model) evaluateOracle(gradX, gradY []float64) float64 {
	d := m.D
	sc := &wlScratch{}
	clear(m.pinGradX)
	clear(m.pinGradY)
	for ni := range d.Nets {
		net := &d.Nets[ni]
		m.totals[ni] = 0
		if len(net.Pins) < 2 || net.Weight == 0 {
			continue
		}
		wx := m.axisOracle(net, true, sc)
		wy := m.axisOracle(net, false, sc)
		m.totals[ni] = net.Weight * (wx + wy)
	}
	total := 0.0
	for _, v := range m.totals {
		total += v
	}
	for pi := range d.Pins {
		if m.pinGradX[pi] == 0 && m.pinGradY[pi] == 0 {
			continue
		}
		ci := d.Pins[pi].Cell
		gradX[ci] += m.pinGradX[pi]
		gradY[ci] += m.pinGradY[pi]
	}
	return total
}

// axisOracle is the per-axis WA kernel that gathers the net's pin
// coordinates on one axis and branches on the axis for every pin.
func (m *Model) axisOracle(net *netlist.Net, isX bool, sc *wlScratch) float64 {
	d := m.D
	gamma := m.Gamma
	n := len(net.Pins)
	sc.ensure(n)
	coords, as, bs := sc.xs, sc.as, sc.bs

	maxC, minC := math.Inf(-1), math.Inf(1)
	for k, pid := range net.Pins {
		p := d.PinPos(pid)
		c := p.Y
		if isX {
			c = p.X
		}
		coords[k] = c
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}

	var sa, sxa, sb, sxb float64
	for k, c := range coords {
		a := math.Exp((c - maxC) / gamma)
		b := math.Exp((minC - c) / gamma)
		as[k], bs[k] = a, b
		sa += a
		sxa += c * a
		sb += b
		sxb += c * b
	}
	wl := sxa/sa - sxb/sb

	waMax := sxa / sa
	waMin := sxb / sb
	weight := net.Weight
	for k, pid := range net.Pins {
		c := coords[k]
		gMax := as[k] * (1 + (c-waMax)/gamma) / sa
		gMin := bs[k] * (1 - (c-waMin)/gamma) / sb
		g := weight * (gMax - gMin)
		if isX {
			m.pinGradX[pid] += g
		} else {
			m.pinGradY[pid] += g
		}
	}
	return wl
}

// TestEvaluateMatchesPerAxisOracle: the gather-once Evaluate returns the
// per-axis kernel's value and every cell gradient bit for bit, on a
// generated design at random positions with random net weights.
func TestEvaluateMatchesPerAxisOracle(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("wl-oracle", 600, 71))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	w, h := d.Die.W(), d.Die.H()
	for trial := 0; trial < 4; trial++ {
		for ci := range d.Cells {
			d.Cells[ci].Pos.X = d.Die.Lo.X + rng.Float64()*w
			d.Cells[ci].Pos.Y = d.Die.Lo.Y + rng.Float64()*h
		}
		for ni := range d.Nets {
			d.Nets[ni].Weight = 0.5 + 2*rng.Float64()
		}
		gamma := 1 + 50*rng.Float64()
		m := NewModel(d, gamma)
		gx := make([]float64, len(d.Cells))
		gy := make([]float64, len(d.Cells))
		got := m.Evaluate(gx, gy)
		ox := make([]float64, len(d.Cells))
		oy := make([]float64, len(d.Cells))
		want := NewModel(d, gamma).evaluateOracle(ox, oy)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Evaluate = %v, oracle %v", trial, got, want)
		}
		for ci := range gx {
			if math.Float64bits(gx[ci]) != math.Float64bits(ox[ci]) ||
				math.Float64bits(gy[ci]) != math.Float64bits(oy[ci]) {
				t.Fatalf("trial %d cell %d: gradient (%v, %v), oracle (%v, %v)",
					trial, ci, gx[ci], gy[ci], ox[ci], oy[ci])
			}
		}
	}
}

// TestEvaluateNaNPinIsNaN: a NaN pin coordinate still makes the objective
// NaN, on either axis.
func TestEvaluateNaNPinIsNaN(t *testing.T) {
	d := randomDesign(t, 72, 40, 30)
	ci := d.Pins[d.Nets[0].Pins[0]].Cell
	for _, axis := range []string{"x", "y"} {
		saved := d.Cells[ci].Pos
		if axis == "x" {
			d.Cells[ci].Pos.X = math.NaN()
		} else {
			d.Cells[ci].Pos.Y = math.NaN()
		}
		m := NewModel(d, 10)
		gx := make([]float64, len(d.Cells))
		gy := make([]float64, len(d.Cells))
		if wl := m.Evaluate(gx, gy); !math.IsNaN(wl) {
			t.Errorf("NaN pin %s: Evaluate = %v, want NaN", axis, wl)
		}
		d.Cells[ci].Pos = saved
	}
}
