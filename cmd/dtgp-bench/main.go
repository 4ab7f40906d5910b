// Command dtgp-bench reproduces the paper's evaluation artifacts on the
// scaled synthetic superblue suite and writes Markdown tables / CSV series.
//
// Usage (-scale and -factor default to EXPERIMENTS.md's 256 and 0.6, from
// report.DefaultSuiteOptions):
//
//	dtgp-bench -experiment table2
//	dtgp-bench -experiment table3
//	dtgp-bench -experiment table3 -scale 512 -factor 0.7
//	dtgp-bench -experiment figure8 -out figure8.csv
//	dtgp-bench -experiment ablation-steiner
//	dtgp-bench -experiment ablation-gamma
//	dtgp-bench -experiment ablation-weights
//	dtgp-bench -experiment scale -cells 50000,superblue-1.9M -iters 10 -out BENCH_scale.json
//	dtgp-bench -experiment scale -cells 200000 -iters 20 -cpuprofile scale.pprof
//	dtgp-bench -experiment heap -cells 200000 -iters 3 -out heap.pprof
//	dtgp-bench -experiment all
//
// -cpuprofile writes a CPU profile of the whole run (every experiment it
// runs) for `go tool pprof`. The heap experiment builds one scale point's
// engine, takes -iters timing-driven iterations, runs two GCs, prints the
// live heap and writes the heap profile to -out; `go tool pprof
// -sample_index=inuse_space -top` lists the owners (make heap-scale).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"dtgp/internal/report"
	"dtgp/internal/viz"
)

func main() {
	def := report.DefaultSuiteOptions()
	var (
		experiment = flag.String("experiment", "table3", "table2 | table3 | figure8 | ablation-steiner | ablation-gamma | ablation-weights | scale | heap | all")
		scale      = flag.Int("scale", def.Scale, "preset scale divisor")
		factor     = flag.Float64("factor", def.PeriodFactor, "clock period as a fraction of the WL flow's critical delay")
		presets    = flag.String("presets", "", "comma-separated subset of benchmarks (default all)")
		out        = flag.String("out", "", "output file for figure8 CSV / scale JSON (default stdout) / heap profile")
		quiet      = flag.Bool("q", false, "suppress progress output")
		cells      = flag.String("cells", report.DefaultScaleSpec, "scale sweep points: cell counts (50000, 200k) and/or preset names")
		iters      = flag.Int("iters", 10, "timing-driven iterations per scale point")
		list       = flag.Bool("list", false, "print the scale sweep's canonical point names and exit")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()

	opts := def
	opts.Scale = *scale
	opts.PeriodFactor = *factor
	if *presets != "" {
		opts.Presets = strings.Split(*presets, ",")
	}
	if !*quiet {
		opts.Logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}

	run := func(name string) error {
		switch name {
		case "table2":
			rows, err := report.RunTable2(opts)
			if err != nil {
				return err
			}
			fmt.Println("## Table 2 — benchmark statistics")
			fmt.Println()
			fmt.Println(report.Table2Markdown(rows, opts.Scale))
		case "table3":
			t3, err := report.RunTable3(opts)
			if err != nil {
				return err
			}
			fmt.Println("## Table 3 — WNS/TNS/HPWL/runtime comparison")
			fmt.Println()
			fmt.Println(t3.Markdown())
		case "figure8":
			fig, err := report.RunFigure8("superblue4", opts)
			if err != nil {
				return err
			}
			csv := fig.CSV()
			if *out != "" {
				if err := os.WriteFile(*out, []byte(csv), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
				svgPath := strings.TrimSuffix(*out, ".csv") + ".svg"
				var sb strings.Builder
				if err := viz.WriteTraceSVG(&sb, fig.WLTrace, fig.DTTrace, "dreamplace", "ours",
					viz.CurveOptions{Title: fig.Design}); err != nil {
					return err
				}
				if err := os.WriteFile(svgPath, []byte(sb.String()), 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", svgPath)
			} else {
				fmt.Print(csv)
			}
			fmt.Fprintln(os.Stderr, fig.Summary())
		case "ablation-steiner":
			rows, err := report.RunAblationSteinerPeriod(opts)
			if err != nil {
				return err
			}
			fmt.Println(report.AblationMarkdown("Ablation A1 — Steiner-tree reuse period (§3.6)", rows))
		case "ablation-gamma":
			rows, err := report.RunAblationGamma(opts)
			if err != nil {
				return err
			}
			fmt.Println(report.AblationMarkdown("Ablation A2 — LSE smoothing γ (§3.2)", rows))
		case "ablation-weights":
			rows, err := report.RunAblationObjectiveWeights(opts)
			if err != nil {
				return err
			}
			fmt.Println(report.AblationMarkdown("Ablation A3 — TNS/WNS objective weights (Eq. 6)", rows))
		case "scale":
			specs, err := report.ParseScaleSpecs(*cells)
			if err != nil {
				return err
			}
			if *list {
				for _, sp := range specs {
					fmt.Println(sp.Name)
				}
				return nil
			}
			rep, err := report.RunScaleSweep(specs, *iters, opts.Logf)
			if err != nil {
				return err
			}
			js, err := rep.JSON()
			if err != nil {
				return err
			}
			if *out != "" {
				if err := os.WriteFile(*out, js, 0o644); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
			} else {
				os.Stdout.Write(js)
			}
		case "heap":
			specs, err := report.ParseScaleSpecs(*cells)
			if err != nil {
				return err
			}
			if len(specs) != 1 || *out == "" {
				return fmt.Errorf("the heap experiment takes one -cells point and an -out file")
			}
			f, err := os.Create(*out)
			if err != nil {
				return err
			}
			live, err := report.RunHeapProbe(specs[0], *iters, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			fmt.Printf("%s: live heap %.1f MB after %d timing-driven iterations; profile in %s\n",
				specs[0].Name, float64(live)/(1<<20), *iters, *out)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	var experiments []string
	if *experiment == "all" {
		experiments = []string{"table2", "table3", "figure8",
			"ablation-steiner", "ablation-gamma", "ablation-weights"}
	} else {
		experiments = []string{*experiment}
	}
	if err := profiled(*cpuprofile, func() error {
		for _, name := range experiments {
			if err := run(name); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		fmt.Fprintln(os.Stderr, "dtgp-bench:", err)
		os.Exit(1)
	}
}

// profiled runs fn under a CPU profile written to path, or plainly when
// path is empty.
func profiled(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
