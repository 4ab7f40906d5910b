package rctree

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/rsmt"
)

const (
	rUnit = 0.01 // kΩ/DBU
	cUnit = 0.16 // fF/DBU
)

// steiner builds a Steiner tree over the pins with a fresh scratch, into
// node windows sized as a net state's are.
func steiner(px, py []float64) *rsmt.Tree {
	m := rsmt.MaxNodes(len(px))
	t := &rsmt.Tree{X: make([]float64, 0, m), Y: make([]float64, 0, m),
		XPin: make([]int32, 0, m), YPin: make([]int32, 0, m)}
	return rsmt.BuildInto(t, px, py, new(rsmt.Scratch))
}

// newTree roots st at root and extracts RC values through Rebuild, into
// node windows of its own, with a fresh scratch.
func newTree(st *rsmt.Tree, root int32, pinCap []float64, rPerUnit, cPerUnit float64) (*Tree, error) {
	n := st.NumNodes()
	col := func() []float64 { return make([]float64, 0, n) }
	t := &Tree{Parent: make([]int32, 0, n), Order: make([]int32, 0, n),
		Res: col(), Cap: col(), Load: col(), Delay: col(), LDelay: col(),
		Beta: col(), Impulse: col(), EdgeLen: col()}
	return t, t.Rebuild(st, root, pinCap, rPerUnit, cPerUnit, new(Scratch))
}

// newGrad returns a Grad pre-sized for m nodes.
func newGrad(m int) *Grad {
	g := new(Grad)
	g.PreSize(m, make([]float64, 8*m))
	return g
}

// DelayByPathFormula computes the Elmore delay to every node using the
// O(n²) shared-path-resistance definition
//
//	Delay(u) = Σ_k R(root→u ∩ root→k) · Cap(k)
//
// It exists as an independent reference for testing the DP passes.
func (t *Tree) DelayByPathFormula() []float64 {
	n := t.N
	depthRes := make([]float64, n) // cumulative resistance root→u
	for _, u := range t.Order {
		if p := t.Parent[u]; p >= 0 {
			depthRes[u] = depthRes[p] + t.Res[u]
		}
	}
	// ancestors of u (including u, excluding root edge-resistance handled
	// via cumulative sums).
	anc := func(u int32) map[int32]bool {
		m := map[int32]bool{}
		for v := u; v >= 0; v = t.Parent[v] {
			m[v] = true
		}
		return m
	}
	out := make([]float64, n)
	for u := 0; u < n; u++ {
		au := anc(int32(u))
		for k := 0; k < n; k++ {
			// Find deepest common ancestor path resistance.
			common := 0.0
			for v := int32(k); v >= 0; v = t.Parent[v] {
				if au[v] {
					common = depthRes[v]
					break
				}
			}
			out[u] += common * t.Cap[k]
		}
	}
	return out
}

func randomNet(rng *rand.Rand, n int) (*rsmt.Tree, []float64) {
	px := make([]float64, n)
	py := make([]float64, n)
	for i := range px {
		px[i] = rng.Float64() * 200
		py[i] = rng.Float64() * 200
	}
	tr := steiner(px, py)
	pinCap := make([]float64, tr.NumNodes())
	for i := 1; i < n; i++ { // node 0 is the driver
		pinCap[i] = 1 + rng.Float64()*3
	}
	return tr, pinCap
}

func TestBuildErrors(t *testing.T) {
	tr := steiner([]float64{0, 10}, []float64{0, 0})
	if _, err := newTree(tr, 5, []float64{0, 0}, rUnit, cUnit); err == nil {
		t.Error("out-of-range root accepted")
	}
	if _, err := newTree(tr, 0, []float64{0}, rUnit, cUnit); err == nil {
		t.Error("wrong pinCap length accepted")
	}
	empty := steiner(nil, nil)
	if _, err := newTree(empty, 0, nil, rUnit, cUnit); err == nil {
		t.Error("empty tree accepted")
	}
}

// TestTwoPinElmoreByHand verifies against a hand calculation: a single wire
// of length L with sink cap Cs. Lumped model: R = r·L, node caps = c·L/2 at
// each end (+Cs at sink). Delay(sink) = R·(c·L/2 + Cs).
func TestTwoPinElmoreByHand(t *testing.T) {
	L := 100.0
	Cs := 2.0
	tr := steiner([]float64{0, L}, []float64{0, 0})
	rc, err := newTree(tr, 0, []float64{0, Cs}, rUnit, cUnit)
	if err != nil {
		t.Fatal(err)
	}
	rc.Forward()
	R := rUnit * L
	wantLoadRoot := cUnit*L + Cs
	if got := rc.Load[0]; math.Abs(got-wantLoadRoot) > 1e-9 {
		t.Errorf("root load = %v, want %v", got, wantLoadRoot)
	}
	wantDelay := R * (cUnit*L/2 + Cs)
	if got := rc.Delay[1]; math.Abs(got-wantDelay) > 1e-9 {
		t.Errorf("sink delay = %v, want %v", got, wantDelay)
	}
	// Impulse² = 2β − D² with β = R·(Cap_sink·Delay_sink)… single segment:
	// LDelay(sink) = Cap(sink)·Delay(sink); Beta(sink) = R·LDelay(sink).
	capSink := cUnit*L/2 + Cs
	beta := R * capSink * wantDelay
	wantImp := math.Sqrt(2*beta - wantDelay*wantDelay)
	if got := rc.Impulse[1]; math.Abs(got-wantImp) > 1e-9 {
		t.Errorf("sink impulse = %v, want %v", got, wantImp)
	}
}

func TestDelayMatchesPathFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		tr, pinCap := randomNet(rng, n)
		rc, err := newTree(tr, 0, pinCap, rUnit, cUnit)
		if err != nil {
			t.Fatal(err)
		}
		rc.Forward()
		ref := rc.DelayByPathFormula()
		for i := range ref {
			if math.Abs(ref[i]-rc.Delay[i]) > 1e-6*(1+math.Abs(ref[i])) {
				t.Fatalf("trial %d node %d: DP delay %v vs path formula %v",
					trial, i, rc.Delay[i], ref[i])
			}
		}
	}
}

func TestElmoreInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		tr, pinCap := randomNet(rng, n)
		rc, err := newTree(tr, 0, pinCap, rUnit, cUnit)
		if err != nil {
			t.Fatal(err)
		}
		rc.Forward()
		// Delay grows monotonically from root to leaves.
		for _, u := range rc.Order {
			if p := rc.Parent[u]; p >= 0 && rc.Delay[u] < rc.Delay[p]-1e-12 {
				t.Fatalf("delay decreased along edge %d→%d", p, u)
			}
		}
		// Root load = total capacitance.
		total := 0.0
		for _, c := range rc.Cap {
			total += c
		}
		if math.Abs(rc.Load[rc.Root]-total) > 1e-9 {
			t.Fatalf("root load %v != total cap %v", rc.Load[rc.Root], total)
		}
		// Impulse is finite and non-negative.
		for i, imp := range rc.Impulse {
			if imp < 0 || math.IsNaN(imp) || math.IsInf(imp, 0) {
				t.Fatalf("bad impulse at node %d: %v", i, imp)
			}
		}
	}
}

// elmoreScalarObjective builds a scalar from Elmore outputs so the full
// backward sweep (including load and impulse paths) is exercised by a
// single finite-difference check.
func elmoreScalarObjective(rc *Tree, wDelay, wImp, wLoad []float64, wRootLoad float64) float64 {
	rc.Forward()
	f := 0.0
	for i := 0; i < rc.N; i++ {
		f += wDelay[i] * rc.Delay[i]
		f += wImp[i] * (2*rc.Beta[i] - rc.Delay[i]*rc.Delay[i]) // Impulse²
	}
	_ = wLoad
	f += wRootLoad * rc.Load[rc.Root]
	return f
}

// TestBackwardFiniteDifference is the core correctness check for Eq. 8
// (with the sign corrections documented in BackwardInto): the analytic gradient
// of a mixed objective w.r.t. every node coordinate must match central
// finite differences through a full rebuild.
func TestBackwardFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		px := make([]float64, n)
		py := make([]float64, n)
		for i := range px {
			// Distinct, well-separated coordinates keep the Steiner
			// topology and coordinate orderings stable under ±h probes.
			px[i] = float64(i)*37 + rng.Float64()*20
			py[i] = float64((i*7)%n)*41 + rng.Float64()*20
		}
		pinCap := make([]float64, 0, n)
		pinCap = append(pinCap, 0)
		for i := 1; i < n; i++ {
			pinCap = append(pinCap, 1+rng.Float64()*3)
		}

		build := func(px, py []float64, topoFrom *rsmt.Tree) *Tree {
			var tr *rsmt.Tree
			if topoFrom != nil {
				// Keep topology fixed while probing: clone + update.
				tr = &rsmt.Tree{
					X:       append([]float64(nil), topoFrom.X...),
					Y:       append([]float64(nil), topoFrom.Y...),
					NumPins: topoFrom.NumPins,
					Edges:   topoFrom.Edges,
					XPin:    topoFrom.XPin,
					YPin:    topoFrom.YPin,
				}
				tr.UpdateFromPins(px, py)
			} else {
				tr = steiner(px, py)
			}
			caps := make([]float64, tr.NumNodes())
			copy(caps, pinCap[:n])
			rc, err := newTree(tr, 0, caps, rUnit, cUnit)
			if err != nil {
				t.Fatal(err)
			}
			return rc
		}

		base := steiner(px, py)
		rc := build(px, py, base)
		nn := rc.N
		wDelay := make([]float64, nn)
		wImp := make([]float64, nn)
		for i := 0; i < nn; i++ {
			wDelay[i] = rng.NormFloat64()
			wImp[i] = rng.NormFloat64() * 0.1
		}
		wRootLoad := rng.NormFloat64()

		f0 := elmoreScalarObjective(rc, wDelay, wImp, nil, wRootLoad)
		_ = f0
		g := newGrad(nn)
		rc.BackwardInto(g, wDelay, wImp, wRootLoad)

		// Redistribute node gradients onto pins via attribution.
		gradPinX := make([]float64, n)
		gradPinY := make([]float64, n)
		for j := 0; j < nn; j++ {
			gradPinX[base.XPin[j]] += g.X[j]
			gradPinY[base.YPin[j]] += g.Y[j]
		}

		const h = 1e-4
		for i := 0; i < n; i++ {
			probe := func(dx, dy float64) float64 {
				qx := append([]float64(nil), px...)
				qy := append([]float64(nil), py...)
				qx[i] += dx
				qy[i] += dy
				return elmoreScalarObjective(build(qx, qy, base), wDelay, wImp, nil, wRootLoad)
			}
			fdx := (probe(h, 0) - probe(-h, 0)) / (2 * h)
			fdy := (probe(0, h) - probe(0, -h)) / (2 * h)
			if math.Abs(fdx-gradPinX[i]) > 1e-4*(1+math.Abs(fdx)) {
				t.Fatalf("trial %d pin %d: dX analytic %v vs fd %v", trial, i, gradPinX[i], fdx)
			}
			if math.Abs(fdy-gradPinY[i]) > 1e-4*(1+math.Abs(fdy)) {
				t.Fatalf("trial %d pin %d: dY analytic %v vs fd %v", trial, i, gradPinY[i], fdy)
			}
		}
	}
}

func TestRefreshGeometryMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	px := []float64{0, 120, 60, 80, 20}
	py := []float64{0, 0, 90, 40, 70}
	tr := steiner(px, py)
	pinCap := make([]float64, tr.NumNodes())
	for i := 1; i < 5; i++ {
		pinCap[i] = 1.5
	}
	rc, err := newTree(tr, 0, pinCap, rUnit, cUnit)
	if err != nil {
		t.Fatal(err)
	}
	rc.Forward()

	// Perturb pins, refresh in place.
	for i := range px {
		px[i] += rng.NormFloat64()
		py[i] += rng.NormFloat64()
	}
	tr.UpdateFromPins(px, py)
	rc.RefreshGeometry()
	rc.Forward()

	// Reference: fresh build on the same topology & coordinates.
	caps2 := make([]float64, tr.NumNodes())
	copy(caps2, pinCap)
	for i := range caps2 {
		caps2[i] = 0
	}
	for i := 1; i < 5; i++ {
		caps2[i] = 1.5
	}
	rc2, err := newTree(tr, 0, caps2, rUnit, cUnit)
	if err != nil {
		t.Fatal(err)
	}
	rc2.Forward()
	for i := 0; i < rc.N; i++ {
		if math.Abs(rc.Delay[i]-rc2.Delay[i]) > 1e-9 {
			t.Fatalf("node %d delay after refresh %v != rebuild %v", i, rc.Delay[i], rc2.Delay[i])
		}
		if math.Abs(rc.Cap[i]-rc2.Cap[i]) > 1e-9 {
			t.Fatalf("node %d cap after refresh %v != rebuild %v", i, rc.Cap[i], rc2.Cap[i])
		}
	}
}

func TestStarTopologyLoads(t *testing.T) {
	// Driver at center, three sinks: every sink's load is its own cap plus
	// half its wire; root load is everything.
	px := []float64{50, 0, 100, 50}
	py := []float64{50, 50, 50, 0}
	tr := steiner(px, py)
	pinCap := make([]float64, tr.NumNodes())
	pinCap[1], pinCap[2], pinCap[3] = 2, 3, 4
	rc, err := newTree(tr, 0, pinCap, rUnit, cUnit)
	if err != nil {
		t.Fatal(err)
	}
	rc.Forward()
	wantTotal := 2.0 + 3 + 4 + cUnit*150
	if math.Abs(rc.Load[rc.Root]-wantTotal) > 1e-9 {
		t.Errorf("root load = %v, want %v", rc.Load[rc.Root], wantTotal)
	}
}
