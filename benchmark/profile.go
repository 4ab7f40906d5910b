package main

import (
	"fmt"
	"math"

	"dtgp/internal/arena"
	"dtgp/internal/core"
	"dtgp/internal/density"
	"dtgp/internal/geom"
	"dtgp/internal/netlist"
	"dtgp/internal/netweight"
	"dtgp/internal/place"
	"dtgp/internal/sdc"
	"dtgp/internal/timing"
	"dtgp/internal/wirelength"
)

// This file holds the layer profile every traced workload runs on its own
// data: the engine's serial start-up layers one call each, then a replay of
// the engine's per-iteration layer calls. Each call into a layer is a span.

// modeLayers are, by span name, the layers the engine of each flow mode
// calls. Replayed time in them is what trace.replay_coverage counts as
// explained; the profile times the other layers too, on the same data, but
// that flow never calls them. Every engine compacts the netlist and builds
// the timing graph (for the final STA), whatever its mode.
var modeLayers = func() map[place.Mode][]string {
	common := []string{"netlist.Compact", "timing.NewGraph", "wirelength.NewModel", "wirelength.Evaluate",
		"density.NewGrid", "density.BuildDensity", "density.Solve", "density.Gradient", "density.Overflow"}
	return map[place.Mode][]string{
		place.ModeWirelength: common,
		place.ModeDiffTiming: append([]string{"timing.BuildNetStatesArena", "core.NewTimer",
			"core.Evaluate(first)", "core.Evaluate"}, common...),
		place.ModeNetWeight: append([]string{"timing.NewIncremental", "timing.MoveCells",
			"netweight.Update"}, common...),
	}
}()

// arenaChunk is place's slab-size rule: about 1/16 of the expected
// footprint of 4 KB per cell, within [1 MiB, 64 MiB].
func arenaChunk(cells int) int { return min(max(cells*256, 1<<20), 1<<26) }

// startup is a design taken through the engine's serial start-up:
// compaction into an arena, timing-graph levelization, net-state
// extraction, timer construction and the timer's first evaluation.
type startup struct {
	g     *timing.Graph
	timer *core.Timer
	arena *arena.Arena
}

func profileStartup(tr *tracer, parent int, d *netlist.Design, con *sdc.Constraints) (*startup, error) {
	call := func(name string, fn func()) {
		s := tr.begin(name, d.Name, parent)
		fn()
		tr.end(s)
	}
	st := &startup{arena: arena.New(arenaChunk(len(d.Cells)))}
	var err error
	call("netlist.Compact", func() { d.Compact(st.arena) })
	call("timing.NewGraph", func() { st.g, err = timing.NewGraph(d, con) })
	if err != nil {
		return nil, err
	}
	call("timing.BuildNetStatesArena", func() { timing.BuildNetStatesArena(st.g, st.arena) })
	opts := core.DefaultOptions()
	opts.Arena = st.arena
	call("core.NewTimer", func() { st.timer = core.NewTimer(st.g, opts) })
	po := place.DefaultOptions(place.ModeDiffTiming)
	call("core.Evaluate(first)", func() { st.timer.Evaluate(po.T1, po.T2) })
	if n := st.timer.HealthScan(); n > 0 {
		return nil, fmt.Errorf("%s: %d non-finite timer values after the first evaluation", d.Name, n)
	}
	return st, nil
}

// replayer repeats the engine's gradient call order on given iterates with
// public instances of each layer, configured as the engine configures them:
// the net-weighting hook (incremental exact STA, then the reweight) once
// timing is active, then wirelength, density scatter, solve and gather
// (twice on iteration 0, where the engine calibrates λ), the
// differentiable timer once timing is active, and the overflow check.
// Density covers the design's movable cells only: the engine's fillers are
// not visible from outside.
type replayer struct {
	tr     *tracer
	parent int
	d      *netlist.Design
	g      *timing.Graph
	opts   place.Options
	grid   *density.Grid
	wl     *wirelength.Model
	timer  *core.Timer
	inc    *timing.Incremental
	up     *netweight.Updater

	mov                      []int
	gx, gy                   []float64
	dx, dy, dw, dh, dgx, dgy []float64
	lastX, lastY             []float64
	moved                    []int32
	movedFrac                []float64
	hpwl                     float64 // seconds in the HPWL calls tracing adds to the engine
}

// newReplayer builds the layer instances for the start-up's design. The
// start-up's timer, which already ran its first evaluation, is the one
// replayed.
func newReplayer(tr *tracer, parent int, d *netlist.Design, st *startup) (*replayer, error) {
	r := &replayer{tr: tr, parent: parent, d: d, g: st.g, timer: st.timer,
		opts: place.DefaultOptions(place.ModeDiffTiming)}
	var fixed []geom.Rect
	for ci := range d.Cells {
		c := &d.Cells[ci]
		switch {
		case c.Movable() && c.Class != netlist.ClassFiller:
			r.mov = append(r.mov, ci)
		case c.Fixed() && c.W > 0 && c.H > 0:
			fixed = append(fixed, geom.NewRect(c.Pos.X, c.Pos.Y, c.Pos.X+c.W, c.Pos.Y+c.H))
		}
	}
	// The engine's bin rule: the smallest power of two whose square holds
	// the movable cells, within [16, 512].
	bins := 1
	for bins*bins < len(r.mov) && bins < 512 {
		bins *= 2
	}
	bins = max(bins, 16)
	var err error
	r.call("density.NewGrid", func() {
		if r.grid, err = density.NewGrid(d.Die, bins, bins, r.opts.TargetDensity); err == nil {
			r.grid.SetFixed(fixed)
		}
	})
	if err != nil {
		return nil, err
	}
	r.call("wirelength.NewModel", func() { r.wl = wirelength.NewModel(d, math.Max(r.opts.WLGammaFactor*r.grid.BinW, 1e-6)) })
	netweight.ResetWeights(d)
	r.up = netweight.NewUpdater(d, netweight.DefaultOptions())

	n, k := len(d.Cells), len(r.mov)
	r.gx, r.gy = make([]float64, n), make([]float64, n)
	r.dx, r.dy, r.dw, r.dh = make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)
	r.dgx, r.dgy = make([]float64, k), make([]float64, k)
	for i, ci := range r.mov {
		r.dw[i], r.dh[i] = d.Cells[ci].W, d.Cells[ci].H
	}
	return r, nil
}

func (r *replayer) call(name string, fn func()) {
	s := r.tr.begin(name, r.d.Name, r.parent)
	fn()
	r.tr.end(s)
}

// step replays iteration iter at the design's current positions; hpwl adds
// the HPWL call the engine makes at every traced iteration.
func (r *replayer) step(iter int, timingOn, hpwl bool) {
	d := r.d
	if timingOn {
		r.netWeightHook()
	}
	for i, ci := range r.mov {
		r.dx[i], r.dy[i] = d.Cells[ci].Pos.X, d.Cells[ci].Pos.Y
	}
	for calls := 1 + btoi(iter == 0); calls > 0; calls-- {
		clear(r.gx)
		clear(r.gy)
		r.call("wirelength.Evaluate", func() { r.wl.Evaluate(r.gx, r.gy) })
		r.call("density.BuildDensity", func() { r.grid.BuildDensity(r.dx, r.dy, r.dw, r.dh) })
		r.call("density.Solve", func() { r.grid.Solve() })
		clear(r.dgx)
		clear(r.dgy)
		r.call("density.Gradient", func() { r.grid.Gradient(r.dx, r.dy, r.dw, r.dh, r.dgx, r.dgy) })
		if timingOn {
			r.call("core.Evaluate", func() { r.timer.Evaluate(r.opts.T1, r.opts.T2) })
		}
	}
	r.call("density.Overflow", func() { r.grid.Overflow(r.dx, r.dy, r.dw, r.dh) })
	if hpwl {
		s := r.tr.begin("trace.hpwl", d.Name, r.parent)
		d.HPWL()
		r.tr.end(s)
		r.hpwl += r.tr.length(s)
	}
}

// netWeightHook feeds the incremental exact STA the cells that moved since
// its last call, as the engine's net-weighting hook does, and reweights.
func (r *replayer) netWeightHook() {
	d := r.d
	if r.inc == nil {
		r.call("timing.NewIncremental", func() {
			r.inc = timing.NewIncremental(r.g)
			r.inc.Epsilon = 0
		})
		r.lastX, r.lastY = d.Positions()
	} else {
		r.moved = r.moved[:0]
		for ci := range d.Cells {
			if p := d.Cells[ci].Pos; p.X != r.lastX[ci] || p.Y != r.lastY[ci] {
				r.lastX[ci], r.lastY[ci] = p.X, p.Y
				r.moved = append(r.moved, int32(ci))
			}
		}
		r.call("timing.MoveCells", func() { r.inc.MoveCells(r.moved) })
		r.movedFrac = append(r.movedFrac, float64(len(r.moved))/float64(len(d.Cells)))
	}
	r.call("netweight.Update", func() { r.up.Update(d, r.inc) })
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// layerTrace accumulates what one traced run counted besides span
// durations, one entry per traced flow (or scaling pass).
type layerTrace struct {
	flows                    int
	phase                    core.PhaseTimes
	fullPasses, sparsePasses []float64
	coneCoverage, movedFrac  []float64
	arenaMB                  []float64
	gp, firstIter, other     []float64
	coverage, overhead       []float64
	timingIters, avgDisp     []float64
	iters                    []float64 // engine iteration times in seconds
}

// addReplay records what the start-up and the replay of one flow counted.
func (t *layerTrace) addReplay(st *startup, r *replayer) {
	t.flows++
	t.phase.ForwardNS += st.timer.Phase.ForwardNS
	t.phase.ConeBuildNS += st.timer.Phase.ConeBuildNS
	t.phase.BackwardNS += st.timer.Phase.BackwardNS
	cone := st.timer.Cone()
	t.fullPasses = append(t.fullPasses, float64(cone.FullPasses))
	t.sparsePasses = append(t.sparsePasses, float64(cone.SparsePasses))
	t.coneCoverage = append(t.coneCoverage, cone.Coverage())
	t.arenaMB = append(t.arenaMB, float64(st.arena.Stats().UsedBytes)/(1<<20))
	t.movedFrac = append(t.movedFrac, r.movedFrac...)
}

// addEngine records one engine run: its global-placement wall time, the
// part of it the profile explains, and the tracing's own cost.
func (t *layerTrace) addEngine(gp, firstIter, explained, overhead float64, iters []float64) {
	t.gp = append(t.gp, gp)
	t.firstIter = append(t.firstIter, firstIter)
	t.other = append(t.other, gp-explained)
	t.coverage = append(t.coverage, explained/gp)
	t.overhead = append(t.overhead, overhead/gp)
	t.iters = append(t.iters, iters...)
}

// metrics turns the spans and counts into the per-layer metrics. Per-call
// times are p50/p95 over every call of the run; busy times, phase times and
// counts are per traced flow; one-shot times are means per call.
func (t *layerTrace) metrics(tr *tracer, v map[string]float64) {
	flows := float64(max(1, t.flows))
	ms := func(name string, p float64) float64 { return 1000 * percentile(tr.durations(name), p) }
	perFlow := func(names ...string) float64 {
		total := 0.0
		for _, n := range names {
			total += sum(tr.durations(n))
		}
		return total / flows
	}
	once := func(name string) float64 { return mean(tr.durations(name)) }
	v["core.evaluate_ms_p50"] = ms("core.Evaluate", 0.5)
	v["core.evaluate_ms_p95"] = ms("core.Evaluate", 0.95)
	v["core.evaluate_first_ms"] = 1000 * once("core.Evaluate(first)")
	v["core.busy_s"] = perFlow("core.Evaluate", "core.Evaluate(first)")
	v["core.forward_s"] = float64(t.phase.ForwardNS) / 1e9 / flows
	v["core.cone_build_s"] = float64(t.phase.ConeBuildNS) / 1e9 / flows
	v["core.backward_s"] = float64(t.phase.BackwardNS) / 1e9 / flows
	v["core.full_passes"] = mean(t.fullPasses)
	v["core.sparse_passes"] = mean(t.sparsePasses)
	v["core.cone_coverage"] = mean(t.coneCoverage)
	v["core.new_timer_s"] = once("core.NewTimer")
	v["timing.move_cells_ms_p50"] = ms("timing.MoveCells", 0.5)
	v["timing.move_cells_busy_s"] = perFlow("timing.MoveCells")
	v["timing.moved_frac"] = mean(t.movedFrac)
	v["timing.graph_s"] = once("timing.NewGraph")
	v["timing.netstates_s"] = once("timing.BuildNetStatesArena")
	v["timing.analyze_s"] = once("timing.Analyze")
	v["netweight.update_ms_p50"] = ms("netweight.Update", 0.5)
	v["netweight.busy_s"] = perFlow("netweight.Update")
	v["wirelength.evaluate_ms_p50"] = ms("wirelength.Evaluate", 0.5)
	v["wirelength.busy_s"] = perFlow("wirelength.Evaluate")
	v["density.scatter_ms_p50"] = ms("density.BuildDensity", 0.5)
	v["density.solve_ms_p50"] = ms("density.Solve", 0.5)
	v["density.gather_ms_p50"] = ms("density.Gradient", 0.5)
	v["density.overflow_ms_p50"] = ms("density.Overflow", 0.5)
	v["density.busy_s"] = perFlow("density.BuildDensity", "density.Solve", "density.Gradient", "density.Overflow")
	v["place.gp_s"] = mean(t.gp)
	v["place.first_iter_s"] = mean(t.firstIter)
	v["place.iter_ms_p50"] = 1000 * percentile(t.iters, 0.5)
	v["place.iter_ms_p95"] = 1000 * percentile(t.iters, 0.95)
	v["place.timing_iters"] = mean(t.timingIters)
	v["place.other_s"] = mean(t.other)
	v["gen.generate_s"] = once("gen.Generate")
	v["netlist.compact_s"] = once("netlist.Compact")
	v["arena.used_mb"] = mean(t.arenaMB)
	v["bookshelf.load_s"] = once("bookshelf.Load")
	v["legalize.s"] = once("legalize.Legalize")
	v["legalize.avg_disp"] = mean(t.avgDisp)
	v["trace.overhead_frac"] = mean(t.overhead)
	v["trace.replay_coverage"] = mean(t.coverage)
}
