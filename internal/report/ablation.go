package report

import (
	"fmt"
	"strings"
	"time"

	"dtgp/internal/gen"
	"dtgp/internal/place"
)

// AblationRow is one configuration's outcome on the ablation design.
type AblationRow struct {
	Label    string
	WNS, TNS float64
	HPWL     float64
	Runtime  time.Duration
}

// AblationMarkdown renders any ablation as a table.
func AblationMarkdown(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n| Config | WNS (ps) | TNS (ps) | HPWL | Runtime |\n|---|---|---|---|---|\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %.4g | %.2fs |\n",
			r.Label, r.WNS, r.TNS, r.HPWL, r.Runtime.Seconds())
	}
	return b.String()
}

// runAblation runs the DT flow on a fresh superblue4 clone per
// configuration, under one shared calibrated clock.
func runAblation(opts SuiteOptions, configure func(label string, po *place.Options), labels []string) ([]AblationRow, error) {
	opts.normalize()
	pre, ok := gen.PresetByName("superblue4")
	if !ok {
		return nil, fmt.Errorf("report: superblue4 preset missing")
	}
	d0, con, err := gen.Generate(pre.Params(opts.Scale))
	if err != nil {
		return nil, err
	}
	dCal := d0.Clone()
	resCal, err := place.Run(dCal, con, opts.Place(place.ModeWirelength))
	if err != nil {
		return nil, err
	}
	con.Period = opts.PeriodFactor * resCal.STA.CriticalDelay()

	var rows []AblationRow
	for _, label := range labels {
		po := opts.Place(place.ModeDiffTiming)
		configure(label, &po)
		d := d0.Clone()
		res, err := place.Run(d, con, po)
		if err != nil {
			return nil, fmt.Errorf("report: ablation %q: %w", label, err)
		}
		rows = append(rows, AblationRow{
			Label: label, WNS: res.WNS, TNS: res.TNS, HPWL: res.HPWL, Runtime: res.Runtime,
		})
		opts.Logf("ablation %s: WNS %.0f TNS %.0f HPWL %.4g rt %.2fs",
			label, res.WNS, res.TNS, res.HPWL, res.Runtime.Seconds())
	}
	return rows, nil
}

// RunAblationSteinerPeriod sweeps the Steiner-tree reuse period (§3.6's
// "every 10 iterations" design choice): the timer's full-refresh fence
// cadence, place.Options.FencePeriod. "never rebuild" leaves only the first
// construction and the per-net rebuilds of violently distorted nets.
func RunAblationSteinerPeriod(opts SuiteOptions) ([]AblationRow, error) {
	periods := map[string]int{
		"rebuild every iter": 1,
		"period 5":           5,
		"period 10 (paper)":  10,
		"period 20":          20,
		"never rebuild":      1 << 30,
	}
	labels := []string{"rebuild every iter", "period 5", "period 10 (paper)", "period 20", "never rebuild"}
	return runAblation(opts, func(label string, po *place.Options) {
		po.FencePeriod = periods[label]
	}, labels)
}

// RunAblationGamma sweeps the LSE smoothing strength (§3.2; the paper sets
// γ ≈ 100).
func RunAblationGamma(opts SuiteOptions) ([]AblationRow, error) {
	gammas := map[string]float64{
		"γ=10":          10,
		"γ=50":          50,
		"γ=100 (paper)": 100,
		"γ=200":         200,
		"γ=500":         500,
	}
	labels := []string{"γ=10", "γ=50", "γ=100 (paper)", "γ=200", "γ=500"}
	return runAblation(opts, func(label string, po *place.Options) {
		po.TimingGamma = gammas[label]
	}, labels)
}

// RunAblationObjectiveWeights toggles the TNS and WNS terms of Eq. 6.
func RunAblationObjectiveWeights(opts SuiteOptions) ([]AblationRow, error) {
	labels := []string{"t1+t2 (paper)", "TNS only (t2=0)", "WNS only (t1=0)", "no timing"}
	return runAblation(opts, func(label string, po *place.Options) {
		switch label {
		case "TNS only (t2=0)":
			po.T2 = 0
		case "WNS only (t1=0)":
			po.T1 = 0
		case "no timing":
			po.Mode = place.ModeWirelength
		}
	}, labels)
}
