package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestReanchorBitIdentity is the core contract behind resume determinism:
// a warm timer that is Reanchor()ed is bitwise indistinguishable from a
// freshly constructed timer at the same positions. The lazy net refresh's
// state (the geometry of each net's last refresh, the fence phase) is
// history-dependent, so without re-anchoring a resumed run would diverge
// from the original in the last bits; Reanchor forces the next Evaluate
// through the fence's re-extraction, after which every derived quantity is
// a pure function of positions.
//
// The test drives a warm timer through a random prefix trajectory, then
// re-anchors it and replays a suffix against a fresh timer built at the
// kill point. Objective, smoothed and hard WNS/TNS, and every cell gradient
// must match bit-for-bit on every suffix step — including steps where the
// two would otherwise be on different fence phases.
func TestReanchorBitIdentity(t *testing.T) {
	g := makeTestBed(t, 300, 37)
	d := g.D
	opts := DefaultOptions() // the production path
	warm := NewTimer(g, opts)
	rng := rand.New(rand.NewSource(37))

	move := func() {
		for moved := 0; moved < 8; {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 4
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 4
			moved++
		}
	}

	// Prefix: accumulate history-dependent refresh state in warm,
	// deliberately ending mid-fence-period (prefix 13, fence 10).
	const prefix, suffix = 13, 25
	for it := 0; it < prefix; it++ {
		move()
		warm.Evaluate(0.01, 0.0001)
	}

	// Kill point: a resumed run builds a new timer here; the original run
	// re-anchors its warm timer at the same boundary.
	fresh := NewTimer(g, opts)
	warm.Reanchor()

	for it := 0; it < suffix; it++ {
		move()
		fWarm := warm.Evaluate(0.01, 0.0001)
		fFresh := fresh.Evaluate(0.01, 0.0001)
		if math.Float64bits(fWarm) != math.Float64bits(fFresh) {
			t.Fatalf("suffix step %d: objective differs: warm %x fresh %x",
				it, math.Float64bits(fWarm), math.Float64bits(fFresh))
		}
		for _, p := range [...]struct {
			name       string
			warm, fres float64
		}{
			{"SmTNS", warm.SmTNS, fresh.SmTNS}, {"SmWNS", warm.SmWNS, fresh.SmWNS},
			{"EstTNS", warm.EstTNS, fresh.EstTNS}, {"EstWNS", warm.EstWNS, fresh.EstWNS},
		} {
			if math.Float64bits(p.warm) != math.Float64bits(p.fres) {
				t.Fatalf("suffix step %d: %s differs: warm %v fresh %v", it, p.name, p.warm, p.fres)
			}
		}
		for ci := range warm.CellGradX {
			if math.Float64bits(warm.CellGradX[ci]) != math.Float64bits(fresh.CellGradX[ci]) ||
				math.Float64bits(warm.CellGradY[ci]) != math.Float64bits(fresh.CellGradY[ci]) {
				t.Fatalf("suffix step %d: gradient differs at cell %d: (%v,%v) vs (%v,%v)",
					it, ci,
					warm.CellGradX[ci], warm.CellGradY[ci],
					fresh.CellGradX[ci], fresh.CellGradY[ci])
			}
		}
	}
}

// TestReanchorPeriodicBitIdentity mirrors the supervisor's actual usage:
// both the original and the resumed run re-anchor at every checkpoint
// boundary, so the equivalence must also hold when Reanchor fires
// repeatedly on an absolute cadence shared by both timers.
func TestReanchorPeriodicBitIdentity(t *testing.T) {
	g := makeTestBed(t, 250, 41)
	d := g.D
	opts := DefaultOptions()
	warm := NewTimer(g, opts)
	fresh := NewTimer(g, opts)
	rng := rand.New(rand.NewSource(41))

	// warm starts with 7 iterations of private history; fresh is built at
	// the kill point. From there, both re-anchor every 5 evaluations (the
	// absolute checkpoint cadence), as optimize does.
	for it := 0; it < 7; it++ {
		for moved := 0; moved < 6; {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.X += rng.NormFloat64() * 3
			moved++
		}
		warm.Evaluate(0.01, 0.0001)
	}
	warm.Reanchor()

	for it := 0; it < 23; it++ {
		for moved := 0; moved < 6; {
			ci := int32(rng.Intn(len(d.Cells)))
			if !d.Cells[ci].Movable() {
				continue
			}
			d.Cells[ci].Pos.Y += rng.NormFloat64() * 3
			moved++
		}
		fWarm := warm.Evaluate(0.01, 0.0001)
		fFresh := fresh.Evaluate(0.01, 0.0001)
		if math.Float64bits(fWarm) != math.Float64bits(fFresh) {
			t.Fatalf("step %d: objective differs under periodic reanchor", it)
		}
		for ci := range warm.CellGradX {
			if math.Float64bits(warm.CellGradX[ci]) != math.Float64bits(fresh.CellGradX[ci]) ||
				math.Float64bits(warm.CellGradY[ci]) != math.Float64bits(fresh.CellGradY[ci]) {
				t.Fatalf("step %d: gradient differs at cell %d under periodic reanchor", it, ci)
			}
		}
		if (it+1)%5 == 0 {
			warm.Reanchor()
			fresh.Reanchor()
		}
	}
}
