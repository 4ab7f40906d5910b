package main

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dtgp/internal/bookshelf"
	"dtgp/internal/gen"
	"dtgp/internal/legalize"
	"dtgp/internal/netlist"
	"dtgp/internal/place"
	"dtgp/internal/rss"
	"dtgp/internal/sdc"
	"dtgp/internal/timing"
)

// A scaling run generates its design scaleSetupBefore times before the
// timed run and scaleSetupAfter times after it; setup_s is the median of
// all, which a slowdown of the machine around either end of the run moves
// less than three samples taken back to back.
const (
	scaleSetupBefore = 3
	scaleSetupAfter  = 2
)

// driftSteps is how many iterations the traced scaling run replays after
// the timer's first evaluation, each after every movable cell drifted by up
// to driftDBU per axis. The drift is above the timer's 0.5 DBU refresh
// threshold, so every net refreshes as in the early steps RunScaleBench
// takes; a drift below it replays almost no forward work and explained only
// about half of the run.
const (
	driftSteps = 5
	driftDBU   = 1.0
)

// After the drift steps the replay takes sparseSteps more, each moving only
// every sparseStride-th movable cell. The timer's forward pass then stays
// incremental and its backward pass can run sparse, as late in a placement,
// so the cone metrics measure that path on this design too; with every cell
// moving, RunScaleBench's early steps never take it.
const (
	sparseSteps  = 3
	sparseStride = 100
)

// scaleRefSamples is how many times a scaling run times the yardstick loop
// just before and just after each timed RunScaleBench.
const scaleRefSamples = 5

// measureScale is the end-to-end scaling workload: the design is generated
// in memory, then place.RunScaleBench runs the timing-driven iterations
// (timing active from the first iteration, no supervision, no
// legalization) from the generated positions each time, timed from
// outside, and an exact STA of the result gives the quality metrics.
//
// Its calls take too long for two loop timings around each to follow the
// machine's speed, so both times are rescaled by the median of every loop
// timing of the run instead: 16 timings, at the start, after each
// generation and around the timed run. Each is taken after a full collection, so no
// collection of the code under test's garbage runs beside the loop. In a
// phase that made the raw run about 60 % longer, the rescaled median of ten
// runs rose by 10 to 15 %, and the interquartile range of ten runs stayed
// under 10 % of the median.
func measureScale(c config, dg *digests, logf func(string, ...any)) (*measurement, error) {
	m := newMeasurement()
	sz := c.sizes()
	p := scaleParams(sz)
	var (
		rawSetup []float64
		d        *netlist.Design
		con      *sdc.Constraints
		err      error
	)
	y := newYardstick()
	generate := func() error {
		d, con = nil, nil
		runtime.GC() // drop the previous sample before timing the next
		t0 := time.Now()
		d, con, err = gen.Generate(p)
		rawSetup = append(rawSetup, time.Since(t0).Seconds())
		runtime.GC()
		y.sample(1)
		return err
	}
	for i := 0; i < scaleSetupBefore; i++ {
		if err := generate(); err != nil {
			return nil, err
		}
	}
	x0, y0 := d.Positions()
	var rawFlows, peaks []float64
	var sta *timing.Result
	err = closedLoop(c.budget(), func() error {
		d.SetPositions(x0, y0)
		m.attempted++
		peakWindow()
		y.sample(scaleRefSamples)
		t0 := time.Now()
		_, err := place.RunScaleBench(d, con, place.DefaultOptions(place.ModeDiffTiming), sz.scaleIters)
		rawFlows = append(rawFlows, time.Since(t0).Seconds())
		// This also frees the engine's memory before the STA allocates its own.
		runtime.GC()
		y.sample(scaleRefSamples)
		if err == nil {
			err = finite(d)
		}
		if err == nil {
			err = dg.check(p.Name, placementDigest(d))
		}
		var g *timing.Graph
		if err == nil {
			g, err = timing.NewGraph(d, con)
		}
		if err == nil {
			sta = timing.Analyze(g)
			err = finite(d, sta.WNS, sta.TNS)
		}
		peaks = append(peaks, float64(rss.PeakBytes())/(1<<20))
		if err != nil {
			m.failed++
			logf("%s: %v", p.Name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	v := m.values
	v["hpwl"] = d.HPWL()
	for i := 0; i < scaleSetupAfter; i++ {
		if err := generate(); err != nil {
			return nil, err
		}
	}
	v["setup_s"] = y.atSpeed(median(rawSetup))
	v["flow_s"] = y.atSpeed(median(rawFlows))
	v["gp_iters"] = float64(sz.scaleIters)
	if sta != nil {
		v["neg_wns_ps"] = -sta.WNS
		v["neg_tns_ps"] = -sta.TNS
	}
	v["peak_rss_mb"] = median(peaks)
	y.log(logf, median(rawSetup), median(rawFlows))
	return m, nil
}

// traceScale is the traced scaling workload: passes of the layer profile on
// one generated copy (start-up, drift replay, a Bookshelf round trip), then
// RunScaleBench, legalization and the exact STA on a second, whose build
// and per-iteration times come from its ScaleStats.
func traceScale(c config, dir string, dg *digests, logf func(string, ...any)) (*measurement, error) {
	m := newMeasurement()
	var t layerTrace
	err := closedLoop(c.budget(), func() error {
		m.attempted++
		if err := traceScalePass(m.spans, &t, c, dir, dg); err != nil {
			m.failed++
			logf("%v", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.metrics(m.spans, m.values)
	return m, nil
}

func traceScalePass(tr *tracer, t *layerTrace, c config, dir string, dg *digests) error {
	sz := c.sizes()
	p := scaleParams(sz)
	root := tr.begin("scale", p.Name, -1)
	defer tr.end(root)
	ss, err := profileScale(tr, t, root, p, dir)
	if err != nil {
		return err
	}
	// The profile's copy is garbage now; the engine builds its own.
	runtime.GC()
	debug.FreeOSMemory()

	s := tr.begin("gen.Generate", p.Name, root)
	d, con, err := gen.Generate(p)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("place.RunScaleBench", p.Name, root)
	stats, err := place.RunScaleBench(d, con, place.DefaultOptions(place.ModeDiffTiming), sz.scaleIters)
	tr.end(s)
	if err != nil {
		return err
	}
	if err := finite(d); err != nil {
		return err
	}
	if err := dg.check(p.Name, placementDigest(d)); err != nil {
		return err
	}
	s = tr.begin("legalize.Legalize", p.Name, root)
	lg, err := legalize.Legalize(d)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("timing.NewGraph", p.Name, root)
	g, err := timing.NewGraph(d, con)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("timing.Analyze", p.Name, root)
	sta := timing.Analyze(g)
	tr.end(s)
	if err := finite(d, sta.WNS, sta.TNS); err != nil {
		return err
	}

	// The engine's run is not traced from inside, so its explained part is
	// the profile's start-up plus, per iteration, the per-call medians of
	// the layers a timing-driven iteration calls (twice on iteration 0).
	perIter := 0.0
	for _, name := range []string{"wirelength.Evaluate", "density.BuildDensity", "density.Solve",
		"density.Gradient", "core.Evaluate"} {
		perIter += median(tr.durations(name))
	}
	explained := tr.busyUnder([]int{ss}, modeLayers[place.ModeDiffTiming]) +
		float64(sz.scaleIters+1)*perIter + float64(sz.scaleIters)*median(tr.durations("density.Overflow"))
	gp := stats.BuildSec + sum(stats.IterSec)
	t.addEngine(gp, stats.BuildSec+stats.IterSec[0], explained, 0, stats.IterSec[1:])
	t.timingIters = append(t.timingIters, float64(sz.scaleIters))
	t.avgDisp = append(t.avgDisp, lg.AvgDisplacement)
	return nil
}

// profileScale runs the layer profile on a generated copy of the scaling
// design: the start-up layers, driftSteps replayed iterations at drifted
// positions, and a Bookshelf save (untimed) and load. It returns the
// start-up span.
func profileScale(tr *tracer, t *layerTrace, root int, p gen.Params, dir string) (int, error) {
	s := tr.begin("gen.Generate", p.Name, root)
	d, con, err := gen.Generate(p)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	ss := tr.begin("startup", p.Name, root)
	st, err := profileStartup(tr, ss, d, con)
	tr.end(ss)
	if err != nil {
		return 0, err
	}
	rp := tr.begin("replay", p.Name, root)
	r, err := newReplayer(tr, rp, d, st)
	if err == nil {
		rng := rand.New(rand.NewSource(p.Seed))
		for i := 0; i < driftSteps+sparseSteps; i++ {
			stride := 1
			if i >= driftSteps {
				stride = sparseStride
			}
			k := 0
			for ci := range d.Cells {
				if c := &d.Cells[ci]; c.Movable() {
					if k%stride == 0 {
						c.Pos.X += (rng.Float64() - 0.5) * 2 * driftDBU
						c.Pos.Y += (rng.Float64() - 0.5) * 2 * driftDBU
					}
					k++
				}
			}
			r.step(i+1, true, false)
		}
	}
	tr.end(rp)
	if err != nil {
		return 0, err
	}
	t.addReplay(st, r)
	bs := filepath.Join(dir, "bookshelf")
	if err := bookshelf.Save(bs, p.Name, d, con); err != nil {
		return 0, err
	}
	s = tr.begin("bookshelf.Load", p.Name, root)
	_, _, err = bookshelf.Load(bs, p.Name)
	tr.end(s)
	return ss, err
}
