// Package report is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Table 2, Table 3, Figure 8) plus the
// ablations called out in DESIGN.md, on the scaled synthetic superblue
// suite, and renders them as Markdown/CSV.
package report

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dtgp/internal/gen"
	"dtgp/internal/netlist"
	"dtgp/internal/place"
	"dtgp/internal/timing"
)

// SuiteOptions configure a harness run.
type SuiteOptions struct {
	// Scale divides the paper's cell counts (256 → superblue1 ≈ 4.7k
	// cells).
	Scale int
	// PeriodFactor sets the clock as a fraction of the wirelength-driven
	// flow's achieved critical delay (0.6 → the WL baseline's critical
	// path misses the clock by 40% of its delay).
	PeriodFactor float64
	// Presets to run; nil = all eight.
	Presets []string
	// Logf receives progress lines; nil = silent.
	Logf func(format string, args ...any)
	// Place returns the options for a flow; nil = place.DefaultOptions.
	Place func(mode place.Mode) place.Options
}

// DefaultSuiteOptions is the configuration of EXPERIMENTS.md: scale 256,
// clock factor 0.6. It is the one source of both defaults.
func DefaultSuiteOptions() SuiteOptions {
	return SuiteOptions{Scale: 256, PeriodFactor: 0.6}
}

func (o *SuiteOptions) normalize() {
	def := DefaultSuiteOptions()
	if o.Scale <= 0 {
		o.Scale = def.Scale
	}
	if o.PeriodFactor <= 0 {
		o.PeriodFactor = def.PeriodFactor
	}
	if len(o.Presets) == 0 {
		o.Presets = gen.PresetNames()
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Place == nil {
		o.Place = place.DefaultOptions
	}
}

// FlowMetrics is one (design, flow) cell of Table 3.
type FlowMetrics struct {
	WNS, TNS float64
	HPWL     float64
	Runtime  time.Duration
}

// Table3Row is one design's comparison across the three flows.
type Table3Row struct {
	Name   string
	Stats  netlist.Stats
	Period float64
	WL     FlowMetrics // DREAMPlace [16]
	NW     FlowMetrics // net weighting [24]
	DT     FlowMetrics // ours
}

// Table3 is the reproduced headline table.
type Table3 struct {
	Rows []Table3Row
	// AvgRatio[flow] holds mean ratios vs the DT flow (DT ≡ 1), in the
	// order WL, NW, DT, for WNS, TNS, HPWL, Runtime.
	AvgWNSRatio, AvgTNSRatio, AvgHPWLRatio, AvgRuntimeRatio [3]float64
}

// RunTable3 reproduces Table 3: the three flows on every preset under a
// shared, calibrated clock constraint.
func RunTable3(opts SuiteOptions) (*Table3, error) {
	opts.normalize()
	t3 := &Table3{}
	for _, name := range opts.Presets {
		row, err := runOneDesign(name, opts)
		if err != nil {
			return nil, fmt.Errorf("report: %s: %w", name, err)
		}
		t3.Rows = append(t3.Rows, *row)
		opts.Logf("%s done: WL wns %.0f | NW wns %.0f | DT wns %.0f",
			name, row.WL.WNS, row.NW.WNS, row.DT.WNS)
	}
	t3.computeRatios()
	return t3, nil
}

func runOneDesign(name string, opts SuiteOptions) (*Table3Row, error) {
	pre, ok := gen.PresetByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown preset %q", name)
	}
	d0, con, err := gen.Generate(pre.Params(opts.Scale))
	if err != nil {
		return nil, err
	}
	row := &Table3Row{Name: name, Stats: d0.Stats()}

	// Flow 1: wirelength-driven ([16]); also calibrates the clock.
	dWL := d0.Clone()
	resWL, err := place.Run(dWL, con, opts.Place(place.ModeWirelength))
	if err != nil {
		return nil, err
	}
	con.Period = opts.PeriodFactor * resWL.STA.CriticalDelay()
	row.Period = con.Period
	// Re-time the WL result under the calibrated clock.
	gWL, err := timing.NewGraph(dWL, con)
	if err != nil {
		return nil, err
	}
	staWL := timing.Analyze(gWL)
	row.WL = FlowMetrics{WNS: staWL.WNS, TNS: staWL.TNS, HPWL: resWL.HPWL, Runtime: resWL.Runtime}

	// Flow 2: net weighting ([24]).
	dNW := d0.Clone()
	resNW, err := place.Run(dNW, con, opts.Place(place.ModeNetWeight))
	if err != nil {
		return nil, err
	}
	row.NW = FlowMetrics{WNS: resNW.WNS, TNS: resNW.TNS, HPWL: resNW.HPWL, Runtime: resNW.Runtime}

	// Flow 3: differentiable timing (ours).
	dDT := d0.Clone()
	resDT, err := place.Run(dDT, con, opts.Place(place.ModeDiffTiming))
	if err != nil {
		return nil, err
	}
	row.DT = FlowMetrics{WNS: resDT.WNS, TNS: resDT.TNS, HPWL: resDT.HPWL, Runtime: resDT.Runtime}
	return row, nil
}

// computeRatios fills the Avg.-Ratio row. WNS/TNS ratios follow the paper
// (violation magnitude relative to ours); a flow that removed all
// violations contributes a floor of 0.1% of the period so ratios stay
// finite — EXPERIMENTS.md documents this.
func (t3 *Table3) computeRatios() {
	flows := func(r *Table3Row) [3]*FlowMetrics { return [3]*FlowMetrics{&r.WL, &r.NW, &r.DT} }
	var wns, tns, hpwl, rt [3]float64
	for ri := range t3.Rows {
		r := &t3.Rows[ri]
		eps := 1e-3 * r.Period
		f := flows(r)
		ref := f[2]
		refWNS := math.Max(-ref.WNS, eps)
		refTNS := math.Max(-ref.TNS, eps)
		for i := 0; i < 3; i++ {
			wns[i] += math.Max(-f[i].WNS, eps) / refWNS
			tns[i] += math.Max(-f[i].TNS, eps) / refTNS
			hpwl[i] += f[i].HPWL / ref.HPWL
			rt[i] += f[i].Runtime.Seconds() / ref.Runtime.Seconds()
		}
	}
	n := float64(len(t3.Rows))
	for i := 0; i < 3; i++ {
		t3.AvgWNSRatio[i] = wns[i] / n
		t3.AvgTNSRatio[i] = tns[i] / n
		t3.AvgHPWLRatio[i] = hpwl[i] / n
		t3.AvgRuntimeRatio[i] = rt[i] / n
	}
}

// Markdown renders the table in the paper's layout.
func (t3 *Table3) Markdown() string {
	var b strings.Builder
	b.WriteString("| Benchmark | WNS [16] | TNS [16] | HPWL [16] | RT [16] | WNS [24] | TNS [24] | HPWL [24] | RT [24] | WNS ours | TNS ours | HPWL ours | RT ours |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range t3.Rows {
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %.4g | %.1fs | %.0f | %.0f | %.4g | %.1fs | %.0f | %.0f | %.4g | %.1fs |\n",
			r.Name,
			r.WL.WNS, r.WL.TNS, r.WL.HPWL, r.WL.Runtime.Seconds(),
			r.NW.WNS, r.NW.TNS, r.NW.HPWL, r.NW.Runtime.Seconds(),
			r.DT.WNS, r.DT.TNS, r.DT.HPWL, r.DT.Runtime.Seconds())
	}
	fmt.Fprintf(&b, "| **Avg. Ratio** | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f |\n",
		t3.AvgWNSRatio[0], t3.AvgTNSRatio[0], t3.AvgHPWLRatio[0], t3.AvgRuntimeRatio[0],
		t3.AvgWNSRatio[1], t3.AvgTNSRatio[1], t3.AvgHPWLRatio[1], t3.AvgRuntimeRatio[1],
		t3.AvgWNSRatio[2], t3.AvgTNSRatio[2], t3.AvgHPWLRatio[2], t3.AvgRuntimeRatio[2])
	return b.String()
}

// Table2Row pairs the paper's benchmark statistics with the generated
// scaled design's statistics.
type Table2Row struct {
	Preset gen.Preset
	Stats  netlist.Stats
}

// RunTable2 reproduces Table 2: statistics of the (scaled) benchmark suite.
func RunTable2(opts SuiteOptions) ([]Table2Row, error) {
	opts.normalize()
	var rows []Table2Row
	for _, name := range opts.Presets {
		pre, ok := gen.PresetByName(name)
		if !ok {
			return nil, fmt.Errorf("report: unknown preset %q", name)
		}
		d, _, err := gen.Generate(pre.Params(opts.Scale))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{Preset: pre, Stats: d.Stats()})
		opts.Logf("%s: %d cells / %d nets / %d pins", name,
			rows[len(rows)-1].Stats.Cells, rows[len(rows)-1].Stats.Nets, rows[len(rows)-1].Stats.Pins)
	}
	return rows, nil
}

// Table2Markdown renders Table 2.
func Table2Markdown(rows []Table2Row, scale int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "| Benchmark | #Cells (paper) | #Nets (paper) | #Pins (paper) | #Cells (1/%d) | #Nets | #Pins |\n", scale)
	b.WriteString("|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d | %d |\n",
			r.Preset.Name, r.Preset.PaperCells, r.Preset.PaperNets, r.Preset.PaperPins,
			r.Stats.Cells, r.Stats.Nets, r.Stats.Pins)
	}
	return b.String()
}

// Figure8 holds the per-iteration traces of the wirelength-only and
// differentiable-timing flows on one design (the paper plots superblue4).
type Figure8 struct {
	Design  string
	Period  float64
	WLTrace []place.TracePoint
	DTTrace []place.TracePoint
}

// RunFigure8 reproduces Figure 8: HPWL, density overflow, WNS and TNS along
// the optimization for DREAMPlace vs ours.
func RunFigure8(design string, opts SuiteOptions) (*Figure8, error) {
	opts.normalize()
	pre, ok := gen.PresetByName(design)
	if !ok {
		return nil, fmt.Errorf("report: unknown preset %q", design)
	}
	d0, con, err := gen.Generate(pre.Params(opts.Scale))
	if err != nil {
		return nil, err
	}
	// Calibrate the clock via a fast un-traced WL run first.
	dCal := d0.Clone()
	calOpts := opts.Place(place.ModeWirelength)
	resCal, err := place.Run(dCal, con, calOpts)
	if err != nil {
		return nil, err
	}
	con.Period = opts.PeriodFactor * resCal.STA.CriticalDelay()

	fig := &Figure8{Design: design, Period: con.Period}
	for _, mode := range []place.Mode{place.ModeWirelength, place.ModeDiffTiming} {
		d := d0.Clone()
		po := opts.Place(mode)
		po.TraceTiming = true
		if po.TracePeriod <= 0 {
			po.TracePeriod = 10
		}
		res, err := place.Run(d, con, po)
		if err != nil {
			return nil, err
		}
		if mode == place.ModeWirelength {
			fig.WLTrace = res.Trace
		} else {
			fig.DTTrace = res.Trace
		}
		opts.Logf("figure8 %s %v: %d trace points", design, mode, len(res.Trace))
	}
	return fig, nil
}

// CSV renders the figure data with one row per (flow, iteration).
func (f *Figure8) CSV() string {
	var b strings.Builder
	b.WriteString("flow,iter,hpwl,overflow,wns,tns\n")
	emit := func(flow string, tr []place.TracePoint) {
		for _, p := range tr {
			fmt.Fprintf(&b, "%s,%d,%.6g,%.6g,%.6g,%.6g\n", flow, p.Iter, p.HPWL, p.Overflow, p.WNS, p.TNS)
		}
	}
	emit("dreamplace", f.WLTrace)
	emit("ours", f.DTTrace)
	return b.String()
}

// Summary checks the figure's expected shape: overlapping HPWL/overflow
// curves and a late-run WNS/TNS split in favour of the timing flow.
func (f *Figure8) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 (%s), period %.0f ps\n", f.Design, f.Period)
	if len(f.WLTrace) == 0 || len(f.DTTrace) == 0 {
		return b.String() + "  (missing traces)\n"
	}
	wl := f.WLTrace[len(f.WLTrace)-1]
	dt := f.DTTrace[len(f.DTTrace)-1]
	fmt.Fprintf(&b, "  final HPWL      : dreamplace %.4g | ours %.4g (%+.1f%%)\n",
		wl.HPWL, dt.HPWL, 100*(dt.HPWL/wl.HPWL-1))
	fmt.Fprintf(&b, "  final overflow  : dreamplace %.3f | ours %.3f\n", wl.Overflow, dt.Overflow)
	fmt.Fprintf(&b, "  final WNS       : dreamplace %.0f | ours %.0f\n", wl.WNS, dt.WNS)
	fmt.Fprintf(&b, "  final TNS       : dreamplace %.0f | ours %.0f\n", wl.TNS, dt.TNS)
	return b.String()
}
