package core

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/parallel"
	"dtgp/internal/timing"
)

// TestDiffTimingFlowStress drives the full differentiable-timing flow —
// refresh fences, geometry refreshes, the levelised forward sweep,
// objective and backward sweep — on a multi-lane pool
// for many iterations, so `go test -race` exercises every barrier handoff
// and worker-local scratch buffer across hundreds of pool reuses. The same
// flow is then replayed on a single-lane pool and every per-iteration
// objective plus the final gradients must match bit for bit: the parallel
// schedule must not leak into the arithmetic.
func TestDiffTimingFlowStress(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	const iters = 20
	run := func(workers int) ([]float64, []float64, []float64) {
		parallel.SetWorkers(workers)
		g := makeTestBed(t, 300, 41)
		d := g.D
		// A fence every third evaluation alternates fences and lazy
		// refreshes.
		opts := DefaultOptions()
		opts.Gamma = 50
		opts.FencePeriod = 3
		tm := NewTimer(g, opts)
		rng := rand.New(rand.NewSource(41))
		vals := make([]float64, 0, iters)
		for i := 0; i < iters; i++ {
			for moved := 0; moved < 10; {
				ci := rng.Intn(len(d.Cells))
				if !d.Cells[ci].Movable() {
					continue
				}
				d.Cells[ci].Pos.X += rng.NormFloat64() * 5
				d.Cells[ci].Pos.Y += rng.NormFloat64() * 5
				moved++
			}
			f := tm.Evaluate(0.01, 0.001)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				t.Fatalf("workers=%d iter %d: objective %v", workers, i, f)
			}
			vals = append(vals, f)
		}
		gx := append([]float64(nil), tm.CellGradX...)
		gy := append([]float64(nil), tm.CellGradY...)
		return vals, gx, gy
	}

	vals4, gx4, gy4 := run(4)
	vals1, gx1, gy1 := run(1)

	for i := range vals1 {
		if vals4[i] != vals1[i] {
			t.Fatalf("objective %d differs across schedules: %v (4 lanes) vs %v (serial)", i, vals4[i], vals1[i])
		}
	}
	for i := range gx1 {
		if gx4[i] != gx1[i] || gy4[i] != gy1[i] {
			t.Fatalf("cell %d gradient differs across schedules: (%v,%v) vs (%v,%v)", i, gx4[i], gy4[i], gx1[i], gy1[i])
		}
	}
}

// TestIncrementalTimerStress replays a deterministic move/update sequence on
// the incremental timer under a multi-lane pool and again on a single lane.
// Construction (the parallel Steiner/RC build) and every update (the
// parallel re-extraction of every net, then the level sweeps) must produce
// bit-identical arrival times, slews and WNS/TNS across schedules, the same
// contract the full differentiable flow is held to above.
func TestIncrementalTimerStress(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)

	const rounds = 12
	type snapshot struct {
		wns, tns []float64
		at, slew []float64
	}
	run := func(workers int) snapshot {
		parallel.SetWorkers(workers)
		d, con, err := gen.Generate(gen.DefaultParams("core-inc-stress", 300, 57))
		if err != nil {
			t.Fatal(err)
		}
		g, err := timing.NewGraph(d, con)
		if err != nil {
			t.Fatal(err)
		}
		// Tighten the clock so WNS/TNS are non-trivial.
		con.Period = 0.8 * timing.Analyze(g).CriticalDelay()
		g, err = timing.NewGraph(d, con)
		if err != nil {
			t.Fatal(err)
		}
		inc := timing.NewIncremental(g)
		var s snapshot
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < rounds; round++ {
			for moved := 0; moved < 8; {
				ci := rng.Intn(len(d.Cells))
				if !d.Cells[ci].Movable() {
					continue
				}
				d.Cells[ci].Pos.X += rng.NormFloat64() * 30
				d.Cells[ci].Pos.Y += rng.NormFloat64() * 30
				moved++
			}
			inc.MoveCells(nil)
			s.wns = append(s.wns, inc.WNS)
			s.tns = append(s.tns, inc.TNS)
		}
		s.at = append([]float64(nil), inc.ATLate...)
		s.slew = append([]float64(nil), inc.SlewLate...)
		return s
	}

	s4 := run(4)
	s1 := run(1)
	for i := range s1.wns {
		if s4.wns[i] != s1.wns[i] || s4.tns[i] != s1.tns[i] {
			t.Fatalf("round %d metrics differ across schedules: WNS %v vs %v, TNS %v vs %v",
				i, s4.wns[i], s1.wns[i], s4.tns[i], s1.tns[i])
		}
	}
	for i := range s1.at {
		if s4.at[i] != s1.at[i] || s4.slew[i] != s1.slew[i] {
			t.Fatalf("pin-transition %d state differs across schedules: AT %v vs %v, slew %v vs %v",
				i, s4.at[i], s1.at[i], s4.slew[i], s1.slew[i])
		}
	}
}
