package report

import (
	"strings"
	"testing"

	"dtgp/internal/place"
)

// quickSuite returns a fast two-design configuration for tests.
func quickSuite() SuiteOptions {
	opts := DefaultSuiteOptions()
	opts.Scale = 2048
	opts.Presets = []string{"superblue4", "superblue18"}
	opts.Place = func(mode place.Mode) place.Options {
		po := place.DefaultOptions(mode)
		po.MaxIters = 500
		return po
	}
	return opts
}

func TestRunTable2(t *testing.T) {
	rows, err := RunTable2(quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Scaled sizes must preserve the paper's ordering.
	if rows[0].Preset.PaperCells < rows[1].Preset.PaperCells !=
		(rows[0].Stats.Cells < rows[1].Stats.Cells) {
		t.Error("scaled sizes broke relative ordering")
	}
	md := Table2Markdown(rows, 2048)
	if !strings.Contains(md, "superblue4") || !strings.Contains(md, "|") {
		t.Error("markdown render broken")
	}
}

func TestRunTable3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-flow placement")
	}
	opts := quickSuite()
	opts.Presets = []string{"superblue18"}
	t3, err := RunTable3(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 1 {
		t.Fatalf("rows = %d", len(t3.Rows))
	}
	r := t3.Rows[0]
	// Structural sanity: the WL flow must be slowest to fix timing and
	// fastest to run.
	if !(r.WL.WNS <= r.NW.WNS+1 && r.WL.WNS <= r.DT.WNS+1) {
		t.Errorf("WL flow beat a timing flow on WNS: %+v", r)
	}
	if !(r.WL.Runtime < r.NW.Runtime && r.WL.Runtime < r.DT.Runtime) {
		t.Errorf("WL flow not fastest: %v %v %v", r.WL.Runtime, r.NW.Runtime, r.DT.Runtime)
	}
	if r.Period <= 0 {
		t.Error("period not calibrated")
	}
	md := t3.Markdown()
	if !strings.Contains(md, "Avg. Ratio") {
		t.Error("markdown missing ratio row")
	}
	// DT is the reference: its ratios are 1.
	for _, v := range [4]float64{t3.AvgWNSRatio[2], t3.AvgTNSRatio[2], t3.AvgHPWLRatio[2], t3.AvgRuntimeRatio[2]} {
		if v != 1 {
			t.Errorf("reference ratio != 1: %v", v)
		}
	}
}

func TestRunFigure8Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("traced placement runs")
	}
	opts := quickSuite()
	fig, err := RunFigure8("superblue4", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.WLTrace) < 3 || len(fig.DTTrace) < 3 {
		t.Fatalf("traces too short: %d / %d", len(fig.WLTrace), len(fig.DTTrace))
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "flow,iter,hpwl,overflow,wns,tns\n") {
		t.Error("csv header wrong")
	}
	if !strings.Contains(csv, "dreamplace") || !strings.Contains(csv, "ours") {
		t.Error("csv missing flows")
	}
	if s := fig.Summary(); !strings.Contains(s, "final WNS") {
		t.Error("summary broken")
	}
	// Overflow decreases along both traces (monotone-ish: final < first).
	for _, tr := range [][]place.TracePoint{fig.WLTrace, fig.DTTrace} {
		if tr[len(tr)-1].Overflow >= tr[0].Overflow {
			t.Error("overflow did not decrease along the run")
		}
	}
}

func TestAblationWeightsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple placement runs")
	}
	opts := quickSuite()
	rows, err := RunAblationObjectiveWeights(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	md := AblationMarkdown("test", rows)
	if !strings.Contains(md, "no timing") {
		t.Error("markdown broken")
	}
	// The full objective must beat "no timing" on WNS.
	var full, none float64
	for _, r := range rows {
		switch r.Label {
		case "t1+t2 (paper)":
			full = r.WNS
		case "no timing":
			none = r.WNS
		}
	}
	if full <= none {
		t.Errorf("timing objective (%v) did not beat no-timing (%v)", full, none)
	}
}

// TestAblationSteinerQuick: A1 sweeps the timer's fence cadence, so its
// rows cannot all be equal; equal rows mean the swept option no longer
// reaches the timer.
func TestAblationSteinerQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple placement runs")
	}
	rows, err := RunAblationSteinerPeriod(quickSuite())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows[1:] {
		if r.WNS != rows[0].WNS || r.TNS != rows[0].TNS || r.HPWL != rows[0].HPWL {
			return
		}
	}
	t.Errorf("all %d rows equal (WNS %v, TNS %v, HPWL %v): the swept period does not reach the timer",
		len(rows), rows[0].WNS, rows[0].TNS, rows[0].HPWL)
}

func TestUnknownPresetErrors(t *testing.T) {
	opts := quickSuite()
	opts.Presets = []string{"bogus"}
	if _, err := RunTable3(opts); err == nil {
		t.Error("bogus preset accepted")
	}
	if _, err := RunFigure8("bogus", quickSuite()); err == nil {
		t.Error("bogus figure preset accepted")
	}
}
