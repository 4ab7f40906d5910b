package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"dtgp/internal/bookshelf"
	"dtgp/internal/gen"
	"dtgp/internal/guard"
	"dtgp/internal/legalize"
	"dtgp/internal/netlist"
	"dtgp/internal/place"
	"dtgp/internal/rss"
	"dtgp/internal/sdc"
	"dtgp/internal/timing"
)

// loadDesigns reads every flow design from dir, as dtgp-place would, and
// returns the one with index keep.
func loadDesigns(dir string, params []gen.Params, keep int) (*netlist.Design, *sdc.Constraints, error) {
	var d *netlist.Design
	var con *sdc.Constraints
	for i, p := range params {
		di, ci, err := bookshelf.Load(dir, p.Name)
		if err != nil {
			return nil, nil, err
		}
		if i == keep {
			d, con = di, ci
		}
	}
	return d, con, nil
}

// measureFlows is the end-to-end flow workload: a closed loop of one
// place.Run at a time with the mode's default options (global placement,
// legalization, final exact STA), cycling through the designs, timed from
// outside and checked by the gate. Every design is placed at least once;
// flow_s is the mean over the designs of each one's median flow time, so the
// designs weigh the same however many times the budget let each run.
//
// Before each flow the run loads all eight designs afresh and places one of
// them; setup_s is the median of these loads. Spread over the whole run, the
// samples are robust to the machine's sub-second slowdowns, which hit loading
// up to twice as hard as placing: nine loads back to back at the start read
// 0.055 s in most runs and 0.08 s in about one run of five.
func measureFlows(mode place.Mode, c config, dir string, dg *digests, logf func(string, ...any)) (*measurement, error) {
	m := newMeasurement()
	params := flowParams(c.seed, c.sizes())
	y := newYardstick()
	var setup, rawSetup []float64
	n := len(params)
	times, rawTimes, peaks := make([][]float64, n), make([][]float64, n), make([][]float64, n)
	var iters, wns, tns, hpwl []float64
	start := time.Now()
	for k := 0; ; k++ {
		i := k % n
		if k >= n && time.Since(start).Seconds()+rawTimes[i][len(rawTimes[i])-1] > c.budget().Seconds() {
			break
		}
		name := params[i].Name
		t0 := time.Now()
		d, con, err := loadDesigns(dir, params, i)
		if err != nil {
			return nil, err
		}
		raw := time.Since(t0).Seconds()
		rawSetup = append(rawSetup, raw)
		setup = append(setup, y.rescale(raw))
		m.attempted++
		peakWindow()
		t0 = time.Now()
		res, err := place.Run(d, con, place.DefaultOptions(mode))
		raw = time.Since(t0).Seconds()
		peaks[i] = append(peaks[i], float64(rss.PeakBytes())/(1<<20))
		rawTimes[i] = append(rawTimes[i], raw)
		times[i] = append(times[i], y.rescale(raw))
		if err == nil {
			err = gateFlow(d, con, res.Recovery, res.WNS, res.TNS, filepath.Join(dir, "gate"))
		}
		if err == nil {
			err = dg.check(name, placementDigest(d))
		}
		if err != nil {
			m.failed++
			logf("%s: %v", name, err)
			continue
		}
		if k < n {
			iters = append(iters, float64(res.Iterations))
			wns = append(wns, -res.WNS)
			tns = append(tns, -res.TNS)
			hpwl = append(hpwl, res.HPWL)
		}
	}
	v := m.values
	v["setup_s"] = median(setup)
	v["flow_s"] = meanOfMedians(times)
	v["gp_iters"] = mean(iters)
	v["neg_wns_ps"] = geomean(wns)
	v["neg_tns_ps"] = geomean(tns)
	v["hpwl"] = geomean(hpwl)
	v["peak_rss_mb"] = meanOfMedians(peaks)
	y.log(logf, median(rawSetup), meanOfMedians(rawTimes))
	return m, nil
}

// meanOfMedians is the mean over designs of each design's lower median
// sample. A 20 s run places a design one to five times, and a transient
// slowdown of the machine hits one flow in a few: the lower median of two
// is the faster one, where the median would be their mean.
func meanOfMedians(perDesign [][]float64) float64 {
	var meds []float64
	for _, xs := range perDesign {
		meds = append(meds, sorted(xs)[(len(xs)-1)/2])
	}
	return mean(meds)
}

// peakWindow starts a fresh peak-RSS window, as a process placing one
// design sees it: it returns the freed heap to the kernel and resets the
// kernel's high-water mark to the current RSS. A single VmHWM over a whole
// run would be the maximum over however many flows the budget allowed. The
// reset needs Linux 4.0 or later; where it fails, the mark keeps the
// process's peak, which only makes the metric coarser.
func peakWindow() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// gateFlow is the correctness gate of one legalized flow result: the
// supervisor never intervened, every value is finite, the placement is
// legal, and saving and reloading the result gives bitwise the same WNS and
// TNS. The caller adds the digest check.
func gateFlow(d *netlist.Design, con *sdc.Constraints, rep *guard.Report, wns, tns float64, dir string) error {
	if !rep.Healthy() {
		return fmt.Errorf("supervisor intervened: %s", rep)
	}
	if err := finite(d, wns, tns); err != nil {
		return err
	}
	if err := legalize.Check(d); err != nil {
		return err
	}
	if err := bookshelf.Save(dir, d.Name, d, con); err != nil {
		return err
	}
	d2, con2, err := bookshelf.Load(dir, d.Name)
	if err != nil {
		return err
	}
	g, err := timing.NewGraph(d2, con2)
	if err != nil {
		return err
	}
	sta := timing.Analyze(g)
	if math.Float64bits(sta.WNS) != math.Float64bits(wns) || math.Float64bits(sta.TNS) != math.Float64bits(tns) {
		return fmt.Errorf("WNS/TNS after a save and load %v/%v differ from the flow's %v/%v", sta.WNS, sta.TNS, wns, tns)
	}
	return nil
}

// finite checks the given values, the HPWL and every cell position.
func finite(d *netlist.Design, vals ...float64) error {
	for _, v := range append(vals, d.HPWL()) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite result value %v", v)
		}
	}
	for ci := range d.Cells {
		p := d.Cells[ci].Pos
		if math.IsNaN(p.X+p.Y) || math.IsInf(p.X+p.Y, 0) {
			return fmt.Errorf("cell %s at non-finite position %v", d.Cells[ci].Name, p)
		}
	}
	return nil
}

// traceFlows is the traced flow workload: rounds over every design, each a
// recorded global placement, legalization, the final STA and the layer
// profile on the recorded iterates.
func traceFlows(mode place.Mode, c config, dir string, dg *digests, logf func(string, ...any)) (*measurement, error) {
	m := newMeasurement()
	var t layerTrace
	params := flowParams(c.seed, c.sizes())
	err := closedLoop(c.budget(), func() error {
		for _, p := range params {
			m.attempted++
			if err := traceFlow(m.spans, &t, mode, dir, p, dg); err != nil {
				m.failed++
				logf("%s: %v", p.Name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.metrics(m.spans, m.values)
	return m, nil
}

// recorder is the Logf hook of a traced place.Run. With TracePeriod 1 the
// engine writes the iterate into the design and logs one "iter" line per
// iteration; the recorder timestamps it, copies every cell position and
// keeps the overflow, and notes the iteration from which timing is active.
type recorder struct {
	tr         *tracer
	d          *netlist.Design
	at         []float64 // callback times
	x, y       [][]float64
	overflow   []float64
	activation int
	self       float64 // seconds spent in the recorder
}

func (r *recorder) logf(format string, args ...any) {
	t0 := r.tr.now()
	switch {
	case strings.HasPrefix(format, "[%v] iter ") && len(args) > 3:
		x, y := r.d.Positions()
		r.x, r.y = append(r.x, x), append(r.y, y)
		ov, _ := args[3].(float64)
		r.overflow = append(r.overflow, ov)
		r.at = append(r.at, t0)
	case strings.Contains(format, "timing activated at iter") && len(args) > 1:
		if it, ok := args[1].(int); ok {
			r.activation = it
		}
	}
	r.self += r.tr.now() - t0
}

// timingFrom is the first iteration with timing active under the engine's
// activation rule (iteration count or overflow), applied to the recorded
// overflows, so the layer profile of the wirelength flow runs the timing
// layers where a timing flow would.
func (r *recorder) timingFrom(opts place.Options) int {
	for k, ov := range r.overflow {
		if k+1 >= opts.TimingStartIter || ov < opts.TimingStartOverflow {
			return k + 1
		}
	}
	return len(r.overflow)
}

// traceFlow traces one flow on one design.
func traceFlow(tr *tracer, t *layerTrace, mode place.Mode, dir string, p gen.Params, dg *digests) error {
	name := p.Name
	root := tr.begin("flow", name, -1)
	defer tr.end(root)
	s := tr.begin("gen.Generate", name, root)
	_, _, err := gen.Generate(p)
	tr.end(s)
	if err != nil {
		return err
	}
	// Two loaded copies: the engine places one, the profile runs on the
	// other, whose cell numbering is the same.
	load := func() (*netlist.Design, *sdc.Constraints, error) {
		s := tr.begin("bookshelf.Load", name, root)
		defer tr.end(s)
		return bookshelf.Load(dir, name)
	}
	d, con, err := load()
	if err != nil {
		return err
	}
	dp, conp, err := load()
	if err != nil {
		return err
	}
	ss := tr.begin("startup", name, root)
	st, err := profileStartup(tr, ss, dp, conp)
	tr.end(ss)
	if err != nil {
		return err
	}

	rec := &recorder{tr: tr, d: d, activation: math.MaxInt}
	opts := place.DefaultOptions(mode)
	opts.SkipLegalize = true
	opts.TracePeriod = 1
	opts.Logf = rec.logf
	rs := tr.begin("place.Run", name, root)
	res, err := place.Run(d, con, opts)
	tr.end(rs)
	if err != nil {
		return err
	}
	if !res.Recovery.Healthy() {
		return fmt.Errorf("supervisor intervened: %s", res.Recovery)
	}
	// A plateau stop ends the last iteration before its trace line.
	if n := len(rec.at); n == 0 || n < res.Iterations-1 || n > res.Iterations {
		return fmt.Errorf("recorded %d iteration lines for %d iterations: the engine's trace lines changed", n, res.Iterations)
	}
	timingFrom := rec.timingFrom(opts)
	if mode != place.ModeWirelength && timingFrom != min(rec.activation, len(rec.at)) {
		return fmt.Errorf("timing activated at iteration %d, the activation rule gives %d: the engine's rule changed", rec.activation, timingFrom)
	}
	runStart := tr.spans[rs].Start
	var iters []float64
	for k := 1; k < len(rec.at); k++ {
		tr.add("place.iter", name, rs, rec.at[k-1], rec.at[k])
		iters = append(iters, rec.at[k]-rec.at[k-1])
	}
	gp := rec.at[len(rec.at)-1] - runStart

	s = tr.begin("legalize.Legalize", name, root)
	lg, err := legalize.Legalize(d)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("timing.NewGraph", name, root)
	g, err := timing.NewGraph(d, con)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin("timing.Analyze", name, root)
	sta := timing.Analyze(g)
	tr.end(s)
	if err := gateFlow(d, con, nil, sta.WNS, sta.TNS, filepath.Join(dir, "gate")); err != nil {
		return err
	}
	if err := dg.check(name, placementDigest(d)); err != nil {
		return err
	}

	rp := tr.begin("replay", name, root)
	r, err := newReplayer(tr, rp, dp, st)
	if err == nil {
		for k := range rec.at {
			dp.SetPositions(rec.x[k], rec.y[k])
			r.step(k, k >= timingFrom, true)
		}
	}
	tr.end(rp)
	if err != nil {
		return err
	}
	t.addReplay(st, r)
	explained := tr.busyUnder([]int{ss, rp}, modeLayers[mode])
	t.addEngine(gp, rec.at[0]-runStart, explained, rec.self+r.hpwl, iters)
	timingIters := 0
	if mode != place.ModeWirelength {
		timingIters = len(rec.at) - timingFrom
	}
	t.timingIters = append(t.timingIters, float64(timingIters))
	t.avgDisp = append(t.avgDisp, lg.AvgDisplacement)
	return nil
}
