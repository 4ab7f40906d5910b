package place

import (
	"math"
	"testing"
	"time"

	"dtgp/internal/chaos"
	"dtgp/internal/guard"
)

// chaosRun executes one supervised durable run with the full fault matrix
// wired in: gradient poison (NaN/Inf), in-step panics and stalls from a
// seeded chaos.Injector, plus checkpoint I/O faults from a seeded
// chaos.FaultFS. Returns the final positions and the recovery report.
//
// Faults before iteration 20 are suppressed so the ring holds at least one
// committed checkpoint before the first injection — a fault with an empty
// ring is the (separately tested) trivial-surrender path.
func chaosRun(t *testing.T, chaosSeed int64) ([]float64, *Result) {
	t.Helper()
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 120
	opts.CheckpointDir = t.TempDir()
	opts.CheckpointFS = chaos.NewFaultFS(guard.OSFS, chaosSeed, 0.15)
	e, d := faultEngine(t, 300, opts)

	inj := chaos.NewInjector(chaosSeed, opts.MaxIters, 0.05,
		chaos.KindPanic, chaos.KindNaN, chaos.KindInf, chaos.KindStall)
	if len(inj.Faults()) == 0 {
		t.Fatalf("seed %d scheduled no faults — pick another seed", chaosSeed)
	}
	e.faultHook = func(iter int, g []float64) {
		f, ok := inj.At(iter)
		if !ok || iter < 20 {
			return
		}
		switch f.Kind {
		case chaos.KindPanic:
			panic("chaos: injected kernel fault")
		case chaos.KindNaN:
			g[f.Index%len(g)] = math.NaN()
		case chaos.KindInf:
			g[f.Index%len(g)] = math.Inf(1)
		case chaos.KindStall:
			time.Sleep(2 * time.Millisecond)
		}
	}
	res := &Result{Mode: opts.Mode}
	if err := e.optimize(res); err != nil {
		t.Fatalf("chaos run (seed %d) errored instead of recovering: %v", chaosSeed, err)
	}
	finiteDesign(t, d)
	out := make([]float64, 0, 2*len(d.Cells))
	for ci := range d.Cells {
		out = append(out, d.Cells[ci].Pos.X, d.Cells[ci].Pos.Y)
	}
	return out, res
}

// TestChaosMatrixRecoversOrSurrenders drives the supervisor through a
// seeded multi-fault schedule. The contract: the run never errors and never
// produces a non-finite placement — every fault either rolls back or, if
// the budget is exhausted, surrenders the best finite iterate; injected
// checkpoint I/O failures only cost durability.
func TestChaosMatrixRecoversOrSurrenders(t *testing.T) {
	for _, seed := range []int64{101, 202, 303} {
		_, res := chaosRun(t, seed)
		rep := res.Recovery
		if rep == nil {
			t.Fatalf("seed %d: missing recovery report", seed)
		}
		if rep.Healthy() {
			t.Fatalf("seed %d: report claims a healthy run under fault injection", seed)
		}
		if rep.Rollbacks == 0 && !rep.Surrendered {
			t.Fatalf("seed %d: faults fired but neither rollback nor surrender recorded", seed)
		}
	}
}

// TestChaosMatrixDeterministic: the whole chaos pipeline — schedules, fault
// effects, rollbacks, damping, checkpoint I/O failures — is a pure function
// of the seed: two identical runs must agree on the final placement
// bit-for-bit and on the incident record.
func TestChaosMatrixDeterministic(t *testing.T) {
	const seed = 404
	posA, resA := chaosRun(t, seed)
	posB, resB := chaosRun(t, seed)
	for i := range posA {
		if math.Float64bits(posA[i]) != math.Float64bits(posB[i]) {
			t.Fatalf("chaos run not deterministic: coord %d is %v vs %v", i, posA[i], posB[i])
		}
	}
	a, b := resA.Recovery, resB.Recovery
	if a.Rollbacks != b.Rollbacks || a.Surrendered != b.Surrendered ||
		len(a.Incidents) != len(b.Incidents) {
		t.Fatalf("chaos incident record not deterministic: %d/%v/%d vs %d/%v/%d",
			a.Rollbacks, a.Surrendered, len(a.Incidents),
			b.Rollbacks, b.Surrendered, len(b.Incidents))
	}
	for i := range a.Incidents {
		if a.Incidents[i].Iter != b.Incidents[i].Iter ||
			a.Incidents[i].Reason != b.Incidents[i].Reason {
			t.Fatalf("incident %d differs between identical chaos runs: %+v vs %+v",
				i, a.Incidents[i], b.Incidents[i])
		}
	}
}
