package core

import "testing"

// TestEvaluateSteadyStateAllocFree pins down the allocation-free hot path:
// with topology frozen and most cells moving between evaluations, every
// Evaluate (geometry refresh of the moved nets + Elmore forward + the full
// levelised forward the dirty-density cutoff selects + objective + full
// backward) must run entirely in pre-sized scratch. Two warm-up calls size
// every buffer; after that, zero allocations per pass.
func TestEvaluateSteadyStateAllocFree(t *testing.T) {
	g := makeTestBed(t, 400, 31)
	tm := NewTimer(g, frozenOptions(50))
	eval := func() {
		moveCells(g.D, 0)
		tm.Evaluate(0.01, 0.001)
	}
	eval()
	eval()
	if allocs := testing.AllocsPerRun(10, eval); allocs != 0 {
		t.Errorf("Evaluate allocated %v objects/op in steady state, want 0", allocs)
	}
}

// TestEvaluateValueOnlySteadyStateAllocFree covers the forward-only entry
// point used by finite-difference checks.
func TestEvaluateValueOnlySteadyStateAllocFree(t *testing.T) {
	g := makeTestBed(t, 400, 32)
	tm := NewTimer(g, frozenOptions(50))
	eval := func() {
		moveCells(g.D, 0)
		tm.EvaluateValueOnly(0.01, 0.001)
	}
	eval()
	eval()
	if allocs := testing.AllocsPerRun(10, eval); allocs != 0 {
		t.Errorf("EvaluateValueOnly allocated %v objects/op in steady state, want 0", allocs)
	}
}
