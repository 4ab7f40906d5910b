package report

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"dtgp/internal/gen"
	"dtgp/internal/place"
	"dtgp/internal/rss"
)

// ScaleSpec is one point of the cells-vs-time scaling trajectory
// (BENCH_scale.json).
type ScaleSpec struct {
	// Name is the canonical point name recorded in the JSON ("cells-50000"
	// or a preset/alias name); the Makefile staleness gate greps committed
	// names against `dtgp-bench -experiment scale -list`.
	Name string
	// Cells is the explicit target size (0 when Preset is set).
	Cells int
	// Preset/Scale select a superblue preset; paper-scale aliases arrive
	// here already pinned to scale 1 by gen.ResolvePresetSpec.
	Preset string
	Scale  int
}

// TargetCells is the cell count the spec resolves to, known before
// generation — the sweep sorts by it so the monotonic VmHWM high-water
// mark tracks each point's own working set.
func (s ScaleSpec) TargetCells() int {
	if s.Preset == "" {
		return s.Cells
	}
	p, _ := gen.PresetByName(s.Preset)
	c := p.PaperCells / s.Scale
	if c < 64 {
		c = 64
	}
	return c
}

// DefaultScaleSpec is the committed sweep: two synthetic mid-range points
// plus the two paper-scale anchors.
const DefaultScaleSpec = "50000,200000,superblue-0.8M,superblue-1.9M"

// ParseScaleSpecs parses a comma-separated point list. Each item is either
// an integer cell count (optionally with a k/M suffix: "50k", "1.9M" is
// NOT valid — use the preset alias) or a preset/alias name.
func ParseScaleSpecs(s string) ([]ScaleSpec, error) {
	var specs []ScaleSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if cells, ok := parseCellCount(item); ok {
			if cells < 64 {
				return nil, fmt.Errorf("report: scale point %q below the 64-cell generator floor", item)
			}
			specs = append(specs, ScaleSpec{Name: "cells-" + strconv.Itoa(cells), Cells: cells})
			continue
		}
		p, scale, ok := gen.ResolvePresetSpec(item, 1)
		if !ok {
			return nil, fmt.Errorf("report: scale point %q is neither a cell count nor a preset (have %v and aliases %v)",
				item, gen.PresetNames(), gen.PaperScaleAliasNames())
		}
		specs = append(specs, ScaleSpec{Name: item, Preset: p.Name, Scale: scale})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("report: empty scale spec")
	}
	return specs, nil
}

func parseCellCount(s string) (int, bool) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1_000, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "M"):
		mult, s = 1_000_000, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n * mult, true
}

// ScaleRow is one measured point.
type ScaleRow struct {
	Name       string  `json:"name"`
	Cells      int     `json:"cells"`
	Nets       int     `json:"nets"`
	Pins       int     `json:"pins"`
	GenSec     float64 `json:"gen_sec"`
	BuildSec   float64 `json:"build_sec"`
	SecPerIter float64 `json:"sec_per_iter"`
	TotalSec   float64 `json:"total_sec"`
	// PeakRSSMB is the process high-water mark after the point (0 when the
	// platform cannot report it). Points run in ascending size order, so
	// each value reflects that point's own working set.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// ArenaMB is the slab footprint carved for the point's engine.
	ArenaMB float64 `json:"arena_mb"`
}

// ScaleReport is the committed BENCH_scale.json document. GOMAXPROCS is the
// Go scheduler's CPU count the sweep ran with, and Revision the git commit
// of the measured build (revisionStamp).
type ScaleReport struct {
	Description string     `json:"description"`
	Date        string     `json:"date"`
	Go          string     `json:"go"`
	CPUs        int        `json:"cpus"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	Revision    string     `json:"revision"`
	Iters       int        `json:"iters"`
	Benchmarks  []ScaleRow `json:"benchmarks"`
}

// revisionStamp returns the git revision the running binary was built
// from, with "+modified" for a dirty tree, or "unknown" when the build
// carries no version-control stamp (go run, or a build outside a git
// checkout).
func revisionStamp() string {
	rev, modified := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}

// RunScalePoint generates the spec's design and times netlist build plus
// `iters` timing-driven iterations through place.RunScaleBench.
func RunScalePoint(spec ScaleSpec, iters int, logf func(string, ...any)) (*ScaleRow, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	params := gen.DefaultParams(spec.Name, spec.Cells, int64(1000+spec.TargetCells()%997))
	if spec.Preset != "" {
		p, _ := gen.PresetByName(spec.Preset)
		params = p.Params(spec.Scale)
	}
	t0 := time.Now()
	d, con, err := gen.Generate(params)
	if err != nil {
		return nil, fmt.Errorf("report: %s: %w", spec.Name, err)
	}
	genSec := time.Since(t0).Seconds()
	s := d.Stats()
	logf("%s: generated %d cells / %d nets / %d pins in %.1fs", spec.Name, s.Cells, s.Nets, s.Pins, genSec)

	st, err := place.RunScaleBench(d, con, place.DefaultOptions(place.ModeDiffTiming), iters)
	if err != nil {
		return nil, fmt.Errorf("report: %s: %w", spec.Name, err)
	}
	total := st.BuildSec
	for _, sec := range st.IterSec {
		total += sec
	}
	row := &ScaleRow{
		Name:       spec.Name,
		Cells:      s.Cells,
		Nets:       s.Nets,
		Pins:       s.Pins,
		GenSec:     round3(genSec),
		BuildSec:   round3(st.BuildSec),
		SecPerIter: round3(st.SecPerIter),
		TotalSec:   round3(total),
		PeakRSSMB:  round1(float64(rss.PeakBytes()) / (1 << 20)),
		ArenaMB:    round1(float64(st.Arena.UsedBytes) / (1 << 20)),
	}
	logf("%s: build %.1fs, %.2f s/iter, total %.1fs, peak RSS %.0f MB",
		spec.Name, row.BuildSec, row.SecPerIter, row.TotalSec, row.PeakRSSMB)
	return row, nil
}

// RunScaleSweep measures every spec in ascending size order (see
// ScaleRow.PeakRSSMB) and assembles the committed report.
func RunScaleSweep(specs []ScaleSpec, iters int, logf func(string, ...any)) (*ScaleReport, error) {
	sorted := append([]ScaleSpec(nil), specs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TargetCells() < sorted[j].TargetCells() })
	rep := &ScaleReport{
		Description: "Cells-vs-time scaling trajectory of the differentiable-timing flow: " +
			"netlist build (engine construction over the arena-compacted netlist) plus " +
			strconv.Itoa(iters) + " timing-driven global-placement iterations per point, via place.RunScaleBench " +
			"(timing active from iteration 0, supervision and legalization off). sec_per_iter is the " +
			"steady-state mean excluding iteration 0 (which pays the first net-state build and λ calibration). " +
			"peak_rss_mb is the kernel VmHWM high-water mark; points run in ascending size order so each " +
			"value reflects that point's own working set. Regenerate with `make bench-scale`.",
		Date:       time.Now().Format("2006-01-02"),
		Go:         runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision:   revisionStamp(),
		Iters:      iters,
	}
	for _, spec := range sorted {
		row, err := RunScalePoint(spec, iters, logf)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, *row)
	}
	return rep, nil
}

// JSON renders the report in the BENCH_backward.json house style.
func (r *ScaleReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }
func round1(v float64) float64 { return float64(int64(v*10+0.5)) / 10 }
