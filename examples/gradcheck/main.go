// Gradcheck: validates the differentiable timing engine on a real design by
// comparing analytic ∂f/∂(cell position) against central finite differences
// of the smoothed objective — the end-to-end check of Eq. 8/10/12 plus the
// Fig. 4 Steiner gradient redistribution.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"dtgp"
)

func main() {
	design, con, err := dtgp.GenerateCustom("gradcheck", 400, 3)
	if err != nil {
		log.Fatal(err)
	}
	if err := dtgp.CalibratePeriod(design, con, 0.8); err != nil {
		log.Fatal(err)
	}
	graph, err := dtgp.NewTimingGraph(design, con)
	if err != nil {
		log.Fatal(err)
	}
	// Frozen tree topology (no fence, no per-net rebuild) and exact refresh
	// thresholds: finite differences probe exactly the function the
	// gradient differentiates.
	timer := dtgp.NewDiffTimer(graph, &dtgp.DiffTimerOptions{
		Gamma: 80, FencePeriod: 1 << 30, DistortionLimit: math.Inf(1),
	})

	const t1, t2 = 0.01, 0.001
	f0 := timer.Evaluate(t1, t2)
	fmt.Printf("design: %d cells, graph depth %d levels\n", design.Stats().Cells, graph.MaxLevel())
	fmt.Printf("smoothed objective f = %.4f (TNS_γ %.1f, WNS_γ %.1f)\n\n", f0, timer.SmTNS, timer.SmWNS)
	gradX := append([]float64(nil), timer.CellGradX...)
	gradY := append([]float64(nil), timer.CellGradY...)

	rng := rand.New(rand.NewSource(1))
	const h = 0.02
	fmt.Printf("%-10s %14s %14s %10s\n", "cell", "analytic dX", "fd dX", "rel.err")
	worst := 0.0
	checked := 0
	for checked < 12 {
		ci := rng.Intn(len(design.Cells))
		c := &design.Cells[ci]
		if !c.Movable() {
			continue
		}
		c.Pos.X += h
		fUp := timer.EvaluateValueOnly(t1, t2)
		c.Pos.X -= 2 * h
		fDn := timer.EvaluateValueOnly(t1, t2)
		c.Pos.X += h
		fd := (fUp - fDn) / (2 * h)
		rel := math.Abs(fd-gradX[ci]) / math.Max(1e-9, math.Abs(fd))
		if rel > worst {
			worst = rel
		}
		fmt.Printf("%-10s %14.6g %14.6g %9.2f%%\n", c.Name, gradX[ci], fd, 100*rel)
		checked++
	}
	_ = gradY
	fmt.Printf("\nworst relative error: %.2f%% (kinks in |Δx| and LUT cells account for outliers)\n", 100*worst)
	if worst > 0.25 {
		log.Fatal("gradient check failed")
	}
	fmt.Println("gradient check passed")
}
