package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/netlist"
	"dtgp/internal/place"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// parent re-executes itself to measure a workload.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke drives every workload at toy size through the real command
// path, parent and child, traced and not, and checks that each prints
// exactly the metrics BENCHMARK.json lists, with their units.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, the command has %v", names, workloadNames())
	}
	state := t.TempDir()
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-toy", "-workload", w, "-seconds", "0", "-trace", trace, "-state", state}, &stdout, &stderr)
			if code != exitOK {
				t.Fatalf("%s trace %s: exit %d\n%s", w, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s in %s, BENCHMARK.json says %s", w, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s is %v, not positive", w, m.Name, got.Value)
				}
			}
		}
	}
}

// TestGateCatchesCorruption places a toy design, checks that the gate
// passes it, and that each kind of corruption trips the gate.
func TestGateCatchesCorruption(t *testing.T) {
	p := flowParams(0, toySizes)[2]
	d, con, err := gen.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := place.Run(d, con, place.DefaultOptions(place.ModeWirelength))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := gateFlow(d, con, res.Recovery, res.WNS, res.TNS, dir); err != nil {
		t.Fatalf("gate fails a clean flow: %v", err)
	}
	if err := gateFlow(d, con, res.Recovery, res.WNS+1, res.TNS, dir); err == nil {
		t.Error("gate passes a WNS the saved placement does not give")
	}
	dg := &digests{m: map[string]string{}}
	if err := dg.check(d.Name, placementDigest(d)); err != nil {
		t.Fatal(err)
	}

	a, b := -1, -1
	for ci := range d.Cells {
		if c := &d.Cells[ci]; c.Movable() && c.Class == netlist.ClassComb {
			if a < 0 {
				a = ci
			} else if b < 0 {
				b = ci
			}
		}
	}
	d.Cells[a].Pos = d.Cells[b].Pos // overlap two cells
	if err := gateFlow(d, con, res.Recovery, res.WNS, res.TNS, dir); err == nil {
		t.Error("gate passes overlapping cells")
	}
	if err := dg.check(d.Name, placementDigest(d)); err == nil {
		t.Error("digest check passes a placement that differs from an earlier run's")
	}
	d.Cells[a].Pos.X = math.NaN()
	if err := gateFlow(d, con, res.Recovery, res.WNS, res.TNS, dir); err == nil {
		t.Error("gate passes a non-finite position")
	}
}

// TestFingerprintsCurrent regenerates the flow inputs at the default seed
// and checks that they are byte-identical to what baseline.json recorded,
// so a change to the generator or the Bookshelf writer shows here before a
// benchmark run refuses to compare against the baseline.
func TestFingerprintsCurrent(t *testing.T) {
	for _, w := range workloads {
		if w.scale {
			continue // 200k cells take seconds to generate; the command checks it
		}
		want, ok := recordedFingerprint(w.name)
		if !ok {
			t.Fatalf("baseline.json has no fingerprint for %s", w.name)
		}
		fp, err := w.prepare(t.TempDir(), 0, fullSizes, true)
		if err != nil {
			t.Fatal(err)
		}
		if *fp != want {
			t.Errorf("%s: inputs %+v, baseline.json recorded %+v", w.name, *fp, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1, 2, 4 = %v, %v; want 1, 4", q1, q3)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", g)
	}
	if g := geomean([]float64{3, 0}); g != 0 {
		t.Errorf("geomean with a zero = %v, want 0", g)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "flow_s", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "x", Better: "higher", Bound: 0.10}
	base := []float64{10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.05, 9.95}
	noisy := []float64{8, 12, 9, 11, 10, 8.5, 11.5, 9, 11, 10}
	for _, tc := range []struct {
		name      string
		m         specMetric
		base, cur []float64
		want      string
	}{
		{"same", lower, base, base, verdictWithin},
		{"slower within bound", lower, base, scaleAll(base, 1.05), verdictWithin},
		{"slower beyond bound", lower, base, scaleAll(base, 1.2), verdictWorse},
		{"faster in every pair", lower, base, scaleAll(base, 0.9), verdictClaimMet},
		{"higher is better", higher, base, scaleAll(base, 1.2), verdictClaimMet},
		{"lower when higher is better", higher, base, scaleAll(base, 0.8), verdictWorse},
		{"spread wider than bound", lower, noisy, noisy, verdictUnresolved},
		{"wins but gap inside the base spread", lower, noisy, scaleAll(noisy, 0.99), verdictUnresolved},
		{"per-layer metric", specMetric{Better: "lower"}, base, scaleAll(base, 1.2), verdictNoBound},
	} {
		if got := judge(tc.m, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: judge = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func scaleAll(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareExitsOnRegression(t *testing.T) {
	spec := &benchSpec{EndToEnd: []specMetric{{Name: "flow_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	rec := func(v float64) record {
		return record{Workload: "flow-dt", Result: result{Metrics: map[string]metricValue{"flow_s": {Value: v, Unit: "s"}}}}
	}
	base := []record{rec(10), rec(10.1), rec(9.9)}
	var out bytes.Buffer
	if code := compareRecords(spec, base, base, &out); code != exitOK {
		t.Errorf("identical records: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRecords(spec, base, []record{rec(12), rec(12.1), rec(11.9)}, &out); code != exitFailed {
		t.Errorf("20%% slower: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "flow-dt") || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("comparison does not name the workload and verdict:\n%s", out.String())
	}
}
