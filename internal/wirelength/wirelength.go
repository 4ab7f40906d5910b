// Package wirelength implements the smooth weighted-average (WA) wirelength
// model used by modern analytical placers (DREAMPlace/ePlace lineage) and
// its analytic gradient, plus plain HPWL for reporting. Per net and per
// axis:
//
//	WA(e) = Σxᵢe^{xᵢ/γ}/Σe^{xᵢ/γ} − Σxᵢe^{−xᵢ/γ}/Σe^{−xᵢ/γ}
//
// which approaches max−min = HPWL as γ→0 and is differentiable everywhere.
package wirelength

import (
	"math"

	"dtgp/internal/netlist"
	"dtgp/internal/parallel"
)

// wlScratch holds one worker's per-net pin coordinates and exponential
// buffers, padded so two workers' slice headers never share a cache line.
type wlScratch struct {
	xs, ys, as, bs []float64
	_              [32]byte
}

//dtgp:hotpath
func (sc *wlScratch) ensure(n int) {
	if cap(sc.xs) < n {
		sc.xs = make([]float64, n)
		sc.ys = make([]float64, n)
		sc.as = make([]float64, n)
		sc.bs = make([]float64, n)
	}
	sc.xs = sc.xs[:n]
	sc.ys = sc.ys[:n]
	sc.as = sc.as[:n]
	sc.bs = sc.bs[:n]
}

// Model evaluates weighted-average wirelength over a design.
type Model struct {
	D *netlist.Design
	// Gamma is the smoothing parameter in DBU (typically a small multiple
	// of the bin size, annealed downward as placement converges).
	Gamma float64

	// Per-pin gradient scratch, accumulated into cells by Evaluate.
	pinGradX, pinGradY []float64 //dtgp:index domain=pin
	// Per-net totals, reduced serially in net order so the result is
	// independent of the parallel schedule.
	totals  []float64 //dtgp:index domain=net
	scratch []wlScratch
	evalFn  func(w, lo, hi int)
}

// NewModel builds a WA model.
func NewModel(d *netlist.Design, gamma float64) *Model {
	m := &Model{
		D:        d,
		Gamma:    gamma,
		pinGradX: make([]float64, len(d.Pins)),
		pinGradY: make([]float64, len(d.Pins)),
		totals:   make([]float64, len(d.Nets)),
	}
	m.evalFn = func(w, lo, hi int) {
		sc := &m.scratch[w]
		for ni := lo; ni < hi; ni++ {
			m.totals[ni] = m.evalNet(int32(ni), sc)
		}
	}
	return m
}

// Evaluate returns the total net-weighted WA wirelength and fills
// (gradX, gradY) with its gradient with respect to cell positions
// (accumulating — callers zero the slices). It reads the cells' current
// positions: it refills the design's pin-position column first.
// Allocation-free in steady state: all per-net work runs in worker-local
// scratch. Forward value and
// backward gradient are fused in a single pass (the WA partition sums are
// shared between the two), so one declaration carries both pragmas.
//
//dtgp:hotpath
//dtgp:forward(wa-wirelength)
//dtgp:backward(wa-wirelength)
//dtgp:index gradX=cell gradY=cell
func (m *Model) Evaluate(gradX, gradY []float64) float64 {
	d := m.D
	if n := parallel.Workers(); n > len(m.scratch) {
		m.scratch = append(m.scratch, make([]wlScratch, n-len(m.scratch))...)
	}
	for i := range m.pinGradX {
		m.pinGradX[i] = 0
		m.pinGradY[i] = 0
	}
	d.FillPinPositions()
	// Net sizes follow a power law; guided chunking keeps lanes busy.
	parallel.ForGuided(len(d.Nets), 16, parallel.CostHeavy, m.evalFn)
	total := 0.0
	for _, v := range m.totals {
		total += v
	}
	// Pin gradients land on owning cells (pin offsets are rigid).
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

// evalNet computes one net's weighted WA wirelength and its pin gradients.
// Each pin's position is gathered once from the design's pin-position
// column, which Evaluate fills; the x and y coordinates then run through
// the same axis kernel. Safe to run concurrently across nets: each net
// touches only its own pins.
//
//dtgp:hotpath
//dtgp:index ni=net
func (m *Model) evalNet(ni int32, sc *wlScratch) float64 {
	d := m.D
	net := &d.Nets[ni]
	if len(net.Pins) < 2 || net.Weight == 0 {
		return 0
	}
	sc.ensure(len(net.Pins))
	pos := d.PinPositions()
	for k, pid := range net.Pins {
		p := pos[pid]
		sc.xs[k], sc.ys[k] = p.X, p.Y
	}
	wx := m.axis(net, sc.xs, m.pinGradX, sc)
	wy := m.axis(net, sc.ys, m.pinGradY, sc)
	return net.Weight * (wx + wy)
}

// axis evaluates the WA length of one net along one axis from the net's
// pin coordinates on that axis, accumulating the pin gradients, scaled by
// the net weight, into pinGrad.
//
//dtgp:hotpath
//dtgp:index pinGrad=pin
func (m *Model) axis(net *netlist.Net, coords, pinGrad []float64, sc *wlScratch) float64 {
	gamma := m.Gamma
	as, bs := sc.as, sc.bs

	// Extremes for stable exponentials.
	maxC, minC := math.Inf(-1), math.Inf(1)
	for _, c := range coords {
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}

	// Max side: aᵢ = e^{(xᵢ−max)/γ}; sa = Σaᵢ, sxa = Σxᵢaᵢ.
	// Min side: bᵢ = e^{(min−xᵢ)/γ}; sb = Σbᵢ, sxb = Σxᵢbᵢ.
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

	// Gradient: ∂WA/∂xᵢ =
	//   aᵢ(1 + (xᵢ−WAmax)/γ)/sa − bᵢ(1 − (xᵢ−WAmin)/γ)/sb
	// where WAmax = sxa/sa, WAmin = sxb/sb.
	waMax := sxa / sa
	waMin := sxb / sb
	weight := net.Weight
	for k, pid := range net.Pins {
		c := coords[k]
		gMax := as[k] * (1 + (c-waMax)/gamma) / sa
		gMin := bs[k] * (1 - (c-waMin)/gamma) / sb
		pinGrad[pid] += weight * (gMax - gMin)
	}
	return wl
}
