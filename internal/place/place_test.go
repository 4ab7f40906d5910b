package place

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/legalize"
	"dtgp/internal/timing"
)

func quickOpts(mode Mode) Options {
	o := DefaultOptions(mode)
	o.MaxIters = 600
	return o
}

func TestWirelengthFlowReducesHPWL(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("p", 600, 1))
	if err != nil {
		t.Fatal(err)
	}
	hp0 := d.HPWL()
	res, err := Run(d, con, quickOpts(ModeWirelength))
	if err != nil {
		t.Fatal(err)
	}
	if res.HPWL >= hp0*0.5 {
		t.Errorf("HPWL only improved %v → %v", hp0, res.HPWL)
	}
	if res.Iterations == 0 || res.Runtime <= 0 {
		t.Error("missing run metadata")
	}
	if res.STA == nil || math.IsNaN(res.WNS) {
		t.Error("missing final STA")
	}
}

func TestPlacementIsLegal(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("p", 500, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, con, quickOpts(ModeWirelength)); err != nil {
		t.Fatal(err)
	}
	if err := legalize.Check(d); err != nil {
		t.Fatalf("not legal after Run: %v", err)
	}
}

func TestSkipLegalize(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("p", 400, 3))
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts(ModeWirelength)
	opts.SkipLegalize = true
	res, err := Run(d, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Legal != nil {
		t.Error("legalization ran despite SkipLegalize")
	}
}

func TestTimingFlowsRequireConstraints(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("p", 300, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d.Clone(), nil, quickOpts(ModeNetWeight)); err == nil {
		t.Error("netweight without constraints accepted")
	}
	if _, err := Run(d.Clone(), nil, quickOpts(ModeDiffTiming)); err == nil {
		t.Error("difftiming without constraints accepted")
	}
	// Wirelength mode works without constraints (no final STA then).
	res, err := Run(d.Clone(), nil, quickOpts(ModeWirelength))
	if err != nil {
		t.Fatalf("wirelength without constraints: %v", err)
	}
	if res.STA != nil {
		t.Error("unexpected STA without constraints")
	}
}

func TestStopsOnOverflow(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("p", 500, 5))
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts(ModeWirelength)
	opts.SkipLegalize = true
	opts.TracePeriod = 1
	res, err := Run(d, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= opts.MaxIters {
		t.Skip("did not converge within the quick budget")
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Overflow > opts.StopOverflow*1.5 {
		t.Errorf("stopped at overflow %v, criterion %v", last.Overflow, opts.StopOverflow)
	}
}

func TestTraceTiming(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("p", 400, 6))
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts(ModeDiffTiming)
	opts.TraceTiming = true
	opts.TracePeriod = 20
	res, err := Run(d, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) < 3 {
		t.Fatalf("trace too short: %d", len(res.Trace))
	}
	for _, p := range res.Trace {
		if !p.HasTiming {
			t.Fatal("trace point missing timing data")
		}
		if p.HPWL <= 0 || math.IsNaN(p.WNS) {
			t.Fatalf("bad trace point %+v", p)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() float64 {
		d, con, err := gen.Generate(gen.DefaultParams("p", 400, 7))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d, con, quickOpts(ModeDiffTiming))
		if err != nil {
			t.Fatal(err)
		}
		return res.HPWL + res.WNS*1e-9
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("nondeterministic placement: %v vs %v", a, b)
	}
}

func TestDiffTimingBeatsWirelengthOnTiming(t *testing.T) {
	d0, con, err := gen.Generate(gen.DefaultParams("p", 1000, 42))
	if err != nil {
		t.Fatal(err)
	}
	dWL := d0.Clone()
	resWL, err := Run(dWL, con, quickOpts(ModeWirelength))
	if err != nil {
		t.Fatal(err)
	}
	con.Period = 0.8 * resWL.STA.CriticalDelay()
	gWL, err := timing.NewGraph(dWL, con)
	if err != nil {
		t.Fatal(err)
	}
	staWL := timing.Analyze(gWL)

	dDT := d0.Clone()
	resDT, err := Run(dDT, con, quickOpts(ModeDiffTiming))
	if err != nil {
		t.Fatal(err)
	}
	if resDT.WNS <= staWL.WNS {
		t.Errorf("difftiming WNS %v not better than wirelength %v", resDT.WNS, staWL.WNS)
	}
	if resDT.TNS <= staWL.TNS {
		t.Errorf("difftiming TNS %v not better than wirelength %v", resDT.TNS, staWL.TNS)
	}
	// The paper's "for free" property: HPWL within a few percent.
	if resDT.HPWL > 1.10*resWL.HPWL {
		t.Errorf("difftiming HPWL %v drifted more than 10%% from %v", resDT.HPWL, resWL.HPWL)
	}
}

func TestNetWeightFlowImprovesTiming(t *testing.T) {
	d0, con, err := gen.Generate(gen.DefaultParams("p", 800, 8))
	if err != nil {
		t.Fatal(err)
	}
	dWL := d0.Clone()
	resWL, err := Run(dWL, con, quickOpts(ModeWirelength))
	if err != nil {
		t.Fatal(err)
	}
	con.Period = 0.8 * resWL.STA.CriticalDelay()
	gWL, err := timing.NewGraph(dWL, con)
	if err != nil {
		t.Fatal(err)
	}
	staWL := timing.Analyze(gWL)

	dNW := d0.Clone()
	resNW, err := Run(dNW, con, quickOpts(ModeNetWeight))
	if err != nil {
		t.Fatal(err)
	}
	if resNW.WNS <= staWL.WNS {
		t.Errorf("netweight WNS %v not better than wirelength %v", resNW.WNS, staWL.WNS)
	}
}

// TestIncrementalSTAMatchesAnalyze: the net-weighting hook's maintained
// exact STA must agree bitwise with the from-scratch oracle, timing.Analyze,
// at every call — after ordinary moves and after a rollback that rewrites
// positions behind the engine's back — so each reweight sees exactly the
// slacks a from-scratch analysis gives.
func TestIncrementalSTAMatchesAnalyze(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("p", 400, 7))
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(d, con, DefaultOptions(ModeNetWeight))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	z := append([]float64(nil), e.z...)
	var saved []float64
	for call := 0; call < 8; call++ {
		if call == 5 {
			copy(z, saved) // rollback to the iterate of call 2
		} else {
			for k := 0; k < 20; k++ {
				z[rng.Intn(len(z))] += rng.NormFloat64() * 30
			}
			e.clamp(z)
		}
		if call == 2 {
			saved = append([]float64(nil), z...)
		}
		e.writePositions(z)
		inc := e.incrementalSTA()
		ref := timing.Analyze(e.graph)
		if inc.WorstSlack() != ref.WorstSlack() || inc.TNS != ref.TNS {
			t.Fatalf("call %d: WNS %v vs %v, TNS %v vs %v", call, inc.WorstSlack(), ref.WorstSlack(), inc.TNS, ref.TNS)
		}
		for pi := range d.Pins {
			for tr := timing.Rise; tr <= timing.Fall; tr++ {
				si, sr := inc.PinSlack(int32(pi), tr), ref.PinSlack(int32(pi), tr)
				if si != sr && !(math.IsInf(si, 1) && math.IsInf(sr, 1)) {
					t.Fatalf("call %d: pin %d slack %v vs %v", call, pi, si, sr)
				}
			}
		}
	}
}

func TestEmptyDesignRejected(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("p", 300, 9))
	if err != nil {
		t.Fatal(err)
	}
	d.Cells = nil
	if _, err := Run(d, con, quickOpts(ModeWirelength)); err == nil {
		t.Error("empty design accepted")
	}
}
