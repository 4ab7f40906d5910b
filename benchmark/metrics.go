package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"dtgp/internal/parallel"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json's end_to_end and per_layer lists (the smoke test
// checks it).
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the placer sees, reported by runs with
// tracing off. Every one is positive on every workload: the slack metrics
// are magnitudes of negative slack, and no generated design meets timing at
// its generated clock period. Flow quality is the geometric mean over the
// designs, so each design weighs the same whatever its size.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"flow_s", "s"},
	{"gp_iters", "count"},
	{"neg_wns_ps", "ps"},
	{"neg_tns_ps", "ps"},
	{"hpwl", "DBU"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the layer metrics of a traced run, named after the module
// that does the work. Every workload measures every layer on its own data,
// including layers its flow does not call (see README.md).
var perLayer = []metricDef{
	{"core.evaluate_ms_p50", "ms"},
	{"core.evaluate_ms_p95", "ms"},
	{"core.evaluate_first_ms", "ms"},
	{"core.busy_s", "s"},
	{"core.forward_s", "s"},
	{"core.cone_build_s", "s"},
	{"core.backward_s", "s"},
	{"core.full_passes", "count"},
	{"core.sparse_passes", "count"},
	{"core.cone_coverage", "ratio"},
	{"core.new_timer_s", "s"},
	{"timing.move_cells_ms_p50", "ms"},
	{"timing.move_cells_busy_s", "s"},
	{"timing.moved_frac", "ratio"},
	{"timing.graph_s", "s"},
	{"timing.netstates_s", "s"},
	{"timing.analyze_s", "s"},
	{"netweight.update_ms_p50", "ms"},
	{"netweight.busy_s", "s"},
	{"wirelength.evaluate_ms_p50", "ms"},
	{"wirelength.busy_s", "s"},
	{"density.scatter_ms_p50", "ms"},
	{"density.solve_ms_p50", "ms"},
	{"density.gather_ms_p50", "ms"},
	{"density.overflow_ms_p50", "ms"},
	{"density.busy_s", "s"},
	{"place.gp_s", "s"},
	{"place.first_iter_s", "s"},
	{"place.iter_ms_p50", "ms"},
	{"place.iter_ms_p95", "ms"},
	{"place.timing_iters", "count"},
	{"place.other_s", "s"},
	{"gen.generate_s", "s"},
	{"netlist.compact_s", "s"},
	{"arena.used_mb", "MB"},
	{"bookshelf.load_s", "s"},
	{"legalize.s", "s"},
	{"legalize.avg_disp", "DBU"},
	{"trace.overhead_frac", "ratio"},
	{"trace.replay_coverage", "ratio"},
}

// measurement is what one child run produced.
type measurement struct {
	attempted, failed int
	values            map[string]float64
	spans             *tracer
}

func newMeasurement() *measurement {
	return &measurement{values: map[string]float64{}, spans: newTracer()}
}

// metricValue is one metric of the printed result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the end-to-end or the per-layer list. A value that is not
// finite makes the run incorrect and is reported as 0, which JSON can carry.
func (m *measurement) result(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := result{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metricValue{}}
	finite := true
	for _, d := range defs {
		v := m.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			v = 0
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	r.Correct = finite && m.failed == 0 && m.attempted > 0
	return r
}

func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// env identifies the machine and code a record was measured on.
type env struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PoolLanes  int    `json:"pool_lanes"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

// currentEnv reads the revision from the build's version-control stamp,
// which a build outside a git checkout does not have.
func currentEnv() env {
	e := env{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PoolLanes:  parallel.Workers(),
		Go:         runtime.Version(),
		Revision:   "unknown",
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return e
	}
	modified := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			e.Revision = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		e.Revision += "+modified"
	}
	return e
}

// record is one run as -json appends it.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Result   result  `json:"result"`
	Env      env     `json:"env"`
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the spreads
// printed here are the ones an outside check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-quantile (p in (0,1]) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// geomean of xs, which must be positive; 0 when any is not (or xs is
// empty), so a value that breaks the premise shows instead of averaging in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logs := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
