package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// specMetric is one metric as BENCHMARK.json defines it.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRecords reads a file of JSON lines written by -json.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for ln := 1; sc.Scan(); ln++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, ln, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// samples gathers, in file order, the values of one metric over the
// records of one workload and tracing mode.
func samples(recs []record, workload string, trace bool, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if mv, ok := r.Result.Metrics[metric]; ok {
			out = append(out, mv.Value)
		}
	}
	return out
}

// Verdicts of a comparison.
const (
	verdictWorse      = "worse"        // the median moved the wrong way by more than the bound
	verdictUnresolved = "unresolved"   // a spread is wider than the bound
	verdictClaimMet   = "claim met"    // ≥ 9/10 pair wins and a gap wider than the base IQR
	verdictWithin     = "within bound" // none of the above
	verdictNoBound    = "-"            // per-layer metrics carry no bound
)

// judge compares two sample sets of one metric. A gain needs at least nine
// tenths of the pairs won and a median gap wider than the base's
// interquartile range; a loss is a median worse by more than the bound.
// Samples pair up by position: both sides run the same seeds in the same
// order.
func judge(m specMetric, base, cur []float64) string {
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	bMed, cMed := median(base), median(cur)
	bQ1, bQ3 := quartiles(base)
	cQ1, cQ3 := quartiles(cur)
	wins, pairs := 0, min(len(base), len(cur))
	for i := 0; i < pairs; i++ {
		if better(cur[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 && better(cMed, bMed) && 10*wins >= 9*pairs && math.Abs(cMed-bMed) > bQ3-bQ1 {
		return verdictClaimMet
	}
	if m.Bound <= 0 {
		return verdictNoBound
	}
	if better(bMed, cMed) && math.Abs(cMed-bMed) > m.Bound*math.Abs(bMed) {
		return verdictWorse
	}
	spread := math.Max(relSpread(bQ1, bQ3, bMed), relSpread(cQ1, cQ3, cMed))
	if spread > m.Bound && !allBetter(cur, base, better) {
		return verdictUnresolved
	}
	return verdictWithin
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// allBetter reports whether every run of cur beats every run of base.
func allBetter(cur, base []float64, better func(a, b float64) bool) bool {
	for _, c := range cur {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return len(cur) > 0 && len(base) > 0
}

// runCompare prints, per workload and metric, each side's median, quartiles
// and run count with a verdict, and exits 1 if any metric got worse. It
// reads the directions and bounds from BENCHMARK.json in the working
// directory, the repository root.
func runCompare(basePath, curPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return exitUsage
	}
	base, err := readRecords(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return exitUsage
	}
	cur, err := readRecords(curPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return exitUsage
	}
	return compareRecords(spec, base, cur, stdout)
}

func compareRecords(spec *benchSpec, base, cur []record, stdout io.Writer) int {
	code := exitOK
	fmt.Fprintf(stdout, "%-11s %-27s %-42s %-42s %s\n", "workload", "metric", "base median [q1, q3] n", "new median [q1, q3] n", "verdict")
	for _, w := range workloadNames() {
		for _, group := range []struct {
			trace   bool
			metrics []specMetric
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			for _, m := range group.metrics {
				b := samples(base, w, group.trace, m.Name)
				c := samples(cur, w, group.trace, m.Name)
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				v := judge(m, b, c)
				if v == verdictWorse {
					code = exitFailed
				}
				fmt.Fprintf(stdout, "%-11s %-27s %-42s %-42s %s\n", w, m.Name, describe(b, m.Unit), describe(c, m.Unit), v)
			}
		}
	}
	return code
}

func describe(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %s n=%d", median(xs), q1, q3, unit, len(xs))
}

// summary is one metric's statistics, as baseline.json stores them.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// summarize gives the statistics of every workload and metric of recs.
func summarize(recs []record) map[string]map[string]summary {
	out := map[string]map[string]summary{}
	for _, r := range recs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]summary{}
		}
		for name, mv := range r.Result.Metrics {
			if _, done := out[r.Workload][name]; done {
				continue
			}
			xs := samples(recs, r.Workload, r.Trace, name)
			q1, q3 := quartiles(xs)
			out[r.Workload][name] = summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: mv.Unit}
		}
	}
	return out
}

// envsOf lists the distinct environments of recs in file order.
func envsOf(recs []record) []env {
	var envs []env
	seen := map[env]bool{}
	for _, r := range recs {
		if !seen[r.Env] {
			seen[r.Env] = true
			envs = append(envs, r.Env)
		}
	}
	return envs
}
