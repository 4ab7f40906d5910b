package rsmt

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dtgp/internal/geom"
)

// build constructs a Steiner tree over the given pin coordinates with a
// fresh tree and scratch.
func build(px, py []float64) *Tree {
	return BuildInto(newTree(len(px)), px, py, new(Scratch))
}

// newTree returns a tree whose node windows hold MaxNodes(n) nodes, as a
// net state's windows do for a net of n pins.
func newTree(n int) *Tree {
	m := MaxNodes(n)
	return &Tree{X: make([]float64, 0, m), Y: make([]float64, 0, m),
		XPin: make([]int32, 0, m), YPin: make([]int32, 0, m)}
}

// Length returns the total rectilinear wirelength.
func (t *Tree) Length() float64 {
	total := 0.0
	for _, e := range t.Edges {
		total += math.Abs(t.X[e[0]]-t.X[e[1]]) + math.Abs(t.Y[e[0]]-t.Y[e[1]])
	}
	return total
}

func treeIsConnected(t *Tree) bool {
	n := t.NumNodes()
	if n == 0 {
		return true
	}
	adj := make([][]int32, n)
	for _, e := range t.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

func TestDegenerateNets(t *testing.T) {
	if tr := build(nil, nil); tr.NumNodes() != 0 || len(tr.Edges) != 0 {
		t.Error("empty net mishandled")
	}
	tr := build([]float64{5}, []float64{6})
	if tr.NumNodes() != 1 || len(tr.Edges) != 0 || tr.Length() != 0 {
		t.Error("1-pin net mishandled")
	}
	tr = build([]float64{0, 3}, []float64{0, 4})
	if len(tr.Edges) != 1 || tr.Length() != 7 {
		t.Errorf("2-pin net: edges=%d length=%v", len(tr.Edges), tr.Length())
	}
}

func TestThreePinSteiner(t *testing.T) {
	// Classic T: optimal length is HPWL = 20, MST would be 30.
	tr := build([]float64{0, 10, 5}, []float64{0, 0, 10})
	if !treeIsConnected(tr) {
		t.Fatal("tree disconnected")
	}
	if got := tr.Length(); math.Abs(got-20) > 1e-9 {
		t.Errorf("3-pin Steiner length = %v, want 20", got)
	}
}

func TestFourPinCross(t *testing.T) {
	// Plus-sign pins: RSMT length 20 via two Steiner points or one.
	tr := build([]float64{5, 5, 0, 10}, []float64{0, 10, 5, 5})
	if got := tr.Length(); math.Abs(got-20) > 1e-9 {
		t.Errorf("cross length = %v, want 20", got)
	}
	if !treeIsConnected(tr) {
		t.Error("tree disconnected")
	}
}

func TestSteinerNeverWorseThanMST(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(12)
		px := make([]float64, n)
		py := make([]float64, n)
		for i := range px {
			px[i] = math.Round(rng.Float64() * 100)
			py[i] = math.Round(rng.Float64() * 100)
		}
		tr := build(px, py)
		mst := spanningLength(px, py)
		hp := hpwl(px, py)
		got := tr.Length()
		if got > mst+1e-6 {
			t.Fatalf("trial %d: Steiner %v worse than MST %v (n=%d)", trial, got, mst, n)
		}
		if got < hp-1e-6 {
			t.Fatalf("trial %d: Steiner %v below HPWL lower bound %v (n=%d)", trial, got, hp, n)
		}
		if !treeIsConnected(tr) {
			t.Fatalf("trial %d: disconnected tree", trial)
		}
		if len(tr.Edges) != tr.NumNodes()-1 {
			t.Fatalf("trial %d: %d edges for %d nodes", trial, len(tr.Edges), tr.NumNodes())
		}
	}
}

func TestExactBeatsMSTOnAverage(t *testing.T) {
	// Across random 4-pin nets the exact RSMT should show a clear
	// improvement over the plain MST (the literature average is ~9%).
	rng := rand.New(rand.NewSource(7))
	var sumMST, sumRSMT float64
	for trial := 0; trial < 200; trial++ {
		px := make([]float64, 4)
		py := make([]float64, 4)
		for i := range px {
			px[i] = rng.Float64() * 100
			py[i] = rng.Float64() * 100
		}
		sumMST += spanningLength(px, py)
		sumRSMT += build(px, py).Length()
	}
	if sumRSMT > 0.98*sumMST {
		t.Errorf("exact RSMT only improved MST by %.2f%%, expected > 2%%",
			100*(1-sumRSMT/sumMST))
	}
}

// TestAttributionInvariant: every node's coordinates must equal its
// attributed pins' coordinates — the Hanan property the gradient
// redistribution (Fig. 4) relies on.
func TestAttributionInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		px := make([]float64, n)
		py := make([]float64, n)
		for i := range px {
			px[i] = math.Round(rng.Float64() * 50)
			py[i] = math.Round(rng.Float64() * 50)
		}
		tr := build(px, py)
		for i := 0; i < tr.NumNodes(); i++ {
			xp, yp := tr.XPin[i], tr.YPin[i]
			if xp < 0 || int(xp) >= n || yp < 0 || int(yp) >= n {
				return false
			}
			if tr.X[i] != px[xp] || tr.Y[i] != py[yp] {
				return false
			}
			if i < n && (xp != int32(i) || yp != int32(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestUpdateFromPins(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	px := make([]float64, 8)
	py := make([]float64, 8)
	for i := range px {
		px[i] = rng.Float64() * 100
		py[i] = rng.Float64() * 100
	}
	tr := build(px, py)
	// Shift all pins; the tree must follow rigidly.
	for i := range px {
		px[i] += 13
		py[i] -= 7
	}
	before := tr.Length()
	tr.UpdateFromPins(px, py)
	after := tr.Length()
	if math.Abs(before-after) > 1e-9 {
		t.Errorf("rigid translation changed length: %v → %v", before, after)
	}
	for i := 0; i < tr.NumPins; i++ {
		if tr.X[i] != px[i] || tr.Y[i] != py[i] {
			t.Fatalf("pin %d not updated", i)
		}
	}
}

func TestUpdateFromPinsTracksPerturbation(t *testing.T) {
	// After a small pin move, UpdateFromPins must keep Steiner nodes on
	// their attributed coordinates (the §3.6 approximation).
	px := []float64{0, 10, 5, 7, 2}
	py := []float64{0, 0, 10, 4, 8}
	tr := build(px, py)
	px[2] += 0.5
	py[4] -= 0.25
	tr.UpdateFromPins(px, py)
	for i := 0; i < tr.NumNodes(); i++ {
		if tr.X[i] != px[tr.XPin[i]] || tr.Y[i] != py[tr.YPin[i]] {
			t.Fatalf("node %d detached from attribution", i)
		}
	}
}

func TestCollinearPins(t *testing.T) {
	// All pins on a line: Steiner length equals the span.
	tr := build([]float64{0, 2, 5, 9}, []float64{3, 3, 3, 3})
	if got := tr.Length(); math.Abs(got-9) > 1e-9 {
		t.Errorf("collinear length = %v, want 9", got)
	}
}

func TestCoincidentPins(t *testing.T) {
	tr := build([]float64{1, 1, 1}, []float64{2, 2, 2})
	if got := tr.Length(); got != 0 {
		t.Errorf("coincident pins length = %v, want 0", got)
	}
	if !treeIsConnected(tr) {
		t.Error("coincident pins tree disconnected")
	}
}

func TestLargeNet(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 200
	px := make([]float64, n)
	py := make([]float64, n)
	for i := range px {
		px[i] = rng.Float64() * 1000
		py[i] = rng.Float64() * 1000
	}
	tr := build(px, py)
	if !treeIsConnected(tr) {
		t.Fatal("large net tree disconnected")
	}
	if tr.Length() > spanningLength(px, py) {
		t.Error("large net Steiner worse than MST")
	}
}

// spanningLength returns the rectilinear MST length over the pins alone —
// an upper bound on the Steiner length.
func spanningLength(px, py []float64) float64 {
	t := &Tree{X: px, Y: py, NumPins: len(px)}
	var s mstScratch
	total := 0.0
	for _, e := range mstEdges(t, len(px), &s) {
		total += dist(t, e[0], e[1])
	}
	return total
}

// hpwl returns the half-perimeter bound of the pin set — a lower bound on
// any Steiner tree length (for nets of degree ≤ 3 it is exact).
func hpwl(px, py []float64) float64 {
	if len(px) == 0 {
		return 0
	}
	bb := geom.Rect{Lo: geom.Point{X: px[0], Y: py[0]}, Hi: geom.Point{X: px[0], Y: py[0]}}
	for i := range px {
		bb = bb.ExpandToInclude(geom.Point{X: px[i], Y: py[i]})
	}
	return bb.HalfPerimeter()
}

// oracleBuild is BuildInto for 3–4 pins with the exact search bounded only
// by the half perimeter: the same Hanan candidates in the same order,
// stopping early only once a tree reaches the HPWL, so a 4-pin net that
// cannot reach it tries all 79 spanning trees.
func oracleBuild(px, py []float64) *Tree {
	n := len(px)
	t := &Tree{X: append([]float64(nil), px...), Y: append([]float64(nil), py...), NumPins: n}
	for i := 0; i < n; i++ {
		t.XPin = append(t.XPin, int32(i))
		t.YPin = append(t.YPin, int32(i))
	}
	s := new(Scratch)
	var cands []hanan
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				cands = append(cands, hanan{t.X[i], t.Y[j], int32(i), int32(j)})
			}
		}
	}
	minX, maxX := t.X[0], t.X[0]
	minY, maxY := t.Y[0], t.Y[0]
	for i := 1; i < n; i++ {
		minX = math.Min(minX, t.X[i])
		maxX = math.Max(maxX, t.X[i])
		minY = math.Min(minY, t.Y[i])
		maxY = math.Max(maxY, t.Y[i])
	}
	lower := (maxX - minX) + (maxY - minY) + 1e-12

	bestLen := math.Inf(1)
	tryExact(t, s, nil, &bestLen)
	if bestLen > lower {
		for i := range cands {
			tryExact(t, s, cands[i:i+1], &bestLen)
			if bestLen <= lower {
				break
			}
		}
	}
	if n == 4 && bestLen > lower {
	pairs:
		for i := range cands {
			for j := i + 1; j < len(cands); j++ {
				pair := [2]hanan{cands[i], cands[j]}
				tryExact(t, s, pair[:], &bestLen)
				if bestLen <= lower {
					break pairs
				}
			}
		}
	}
	for _, h := range s.bestPts {
		t.X = append(t.X, h.x)
		t.Y = append(t.Y, h.y)
		t.XPin = append(t.XPin, h.xPin)
		t.YPin = append(t.YPin, h.yPin)
	}
	t.Edges = append([][2]int32(nil), pruneDegenerate(t, s.bestEdges, s)...)
	return t
}

// closedForm is the 4-pin RSMT length by rank, computed independently of
// stopLength: HPWL when the two leftmost pins are also the two lowest
// or the two highest, otherwise HPWL + min(x₍₃₎−x₍₂₎, y₍₃₎−y₍₂₎).
func closedForm(px, py []float64) float64 {
	byX, byY := []int{0, 1, 2, 3}, []int{0, 1, 2, 3}
	sort.SliceStable(byX, func(a, b int) bool { return px[byX[a]] < px[byX[b]] })
	sort.SliceStable(byY, func(a, b int) bool { return py[byY[a]] < py[byY[b]] })
	x := func(r int) float64 { return px[byX[r]] }
	y := func(r int) float64 { return py[byY[r]] }
	hp := (x(3) - x(0)) + (y(3) - y(0))
	left := 1<<byX[0] | 1<<byX[1]
	low := 1<<byY[0] | 1<<byY[1]
	if left == low || left == 0b1111^low {
		return hp
	}
	return hp + math.Min(x(2)-x(1), y(2)-y(1))
}

// sameTree fails unless got and want are the same tree bit for bit.
func sameTree(t *testing.T, what string, got, want *Tree) {
	t.Helper()
	same := got.NumPins == want.NumPins && len(got.X) == len(want.X) &&
		len(got.Edges) == len(want.Edges)
	for i := 0; same && i < len(got.X); i++ {
		same = math.Float64bits(got.X[i]) == math.Float64bits(want.X[i]) &&
			math.Float64bits(got.Y[i]) == math.Float64bits(want.Y[i]) &&
			got.XPin[i] == want.XPin[i] && got.YPin[i] == want.YPin[i]
	}
	for i := 0; same && i < len(got.Edges); i++ {
		same = got.Edges[i] == want.Edges[i]
	}
	if !same {
		t.Fatalf("%s: tree differs from the oracle\ngot  X=%v Y=%v XPin=%v YPin=%v Edges=%v\nwant X=%v Y=%v XPin=%v YPin=%v Edges=%v",
			what, got.X, got.Y, got.XPin, got.YPin, got.Edges,
			want.X, want.Y, want.XPin, want.YPin, want.Edges)
	}
}

// TestFourPinRankPermutations builds one net per pairing of x ranks with y
// ranks. Pins 0 and 1 are the leftmost; the net is separable when they are
// also the two lowest or the two highest (8 of the 24 permutations) and
// then costs the HPWL; the other 16 cost HPWL + min(h₂, v₂).
func TestFourPinRankPermutations(t *testing.T) {
	xs := []float64{0, 3, 7, 12}                                   // h₂ = 4
	for _, ys := range [][]float64{{0, 2, 7, 13}, {0, 5, 8, 13}} { // v₂ = 5, 3
		h2, v2 := xs[2]-xs[1], ys[2]-ys[1]
		hp := (xs[3] - xs[0]) + (ys[3] - ys[0])
		separable := 0
		perm := []int{0, 1, 2, 3}
		var visit func(k int)
		visit = func(k int) {
			if k < 4 {
				for i := k; i < 4; i++ {
					perm[k], perm[i] = perm[i], perm[k]
					visit(k + 1)
					perm[k], perm[i] = perm[i], perm[k]
				}
				return
			}
			py := make([]float64, 4)
			for i, r := range perm {
				py[i] = ys[r]
			}
			want := hp + math.Min(h2, v2)
			if lo := perm[0] + perm[1]; lo == 1 || lo == 5 {
				want = hp
				separable++
			}
			tr := build(xs, py)
			if got := tr.Length(); got != want {
				t.Errorf("y ranks %v: length %v, want %v", perm, got, want)
			}
			sameTree(t, "permutation", tr, oracleBuild(xs, py))
		}
		visit(0)
		if separable != 8 {
			t.Fatalf("%d separable permutations, want 8", separable)
		}
	}
}

// fourPinRegimes draw random 4-pin nets whose coordinates stress ties,
// cancellation and non-representable steps in different ways. In the
// "long" regime rounding separates co-optimal trees by more than the 1e-12
// hysteresis (about 4 % of its nets), which the stop margin must absorb.
var fourPinRegimes = []struct {
	name  string
	coord func(*rand.Rand) float64
}{
	{"uniform", func(r *rand.Rand) float64 { return r.Float64() * 1000 }},
	{"grid5", func(r *rand.Rand) float64 { return float64(r.Intn(5)) }}, // duplicate and collinear pins
	{"offset1e6", func(r *rand.Rand) float64 { return 1e6 + r.Float64()*100 }},
	{"steps", func(r *rand.Rand) float64 { return float64(r.Intn(40)) * []float64{0.1, 0.3}[r.Intn(2)] }},
	{"box50at5e4", func(r *rand.Rand) float64 { return 5e4 + r.Float64()*50 }},
	{"long", func(r *rand.Rand) float64 { return r.Float64() * 2e4 }},
}

// TestFourPinMatchesOracle: on random 4-pin nets the tree has the
// closed-form length and is bit for bit the oracle's.
func TestFourPinMatchesOracle(t *testing.T) {
	nets := 200_000
	if testing.Short() {
		nets = 10_000
	}
	tr, s := newTree(4), new(Scratch)
	px, py := make([]float64, 4), make([]float64, 4)
	for ri, regime := range fourPinRegimes {
		rng := rand.New(rand.NewSource(int64(101 + ri)))
		for k := 0; k < nets/len(fourPinRegimes); k++ {
			for i := range px {
				px[i], py[i] = regime.coord(rng), regime.coord(rng)
			}
			BuildInto(tr, px, py, s)
			want := closedForm(px, py)
			if got := tr.Length(); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("%s net %d (%v, %v): length %v, closed form %v", regime.name, k, px, py, got, want)
			}
			sameTree(t, regime.name, tr, oracleBuild(px, py))
		}
	}
}

// TestLongNetTieMatchesOracle pins a crossing net from a 200k-cell
// placement. Two of its Hanan candidates give the same tree with the edges
// in a different order, and rounding puts the later one more than 1e-12
// below the first, so the oracle ends on the later one. Stopping at the
// first tree within 1e-12 of the closed form would not.
func TestLongNetTieMatchesOracle(t *testing.T) {
	px := []float64{4608, 2068.263091798188, 2259.7175565196258, 2234.015656415741}
	py := []float64{4518.1664583854035, 2307.7349689427515, 2170.511666286241, 2724.161261514496}
	sameTree(t, "long net", build(px, py), oracleBuild(px, py))
}

// TestNonFinitePinMatchesOracle: a NaN or infinite pin makes the bound
// non-finite, so only the plain spanning tree is tried, as in the oracle.
func TestNonFinitePinMatchesOracle(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for n := 3; n <= 4; n++ {
			for k := 0; k < 2*n; k++ {
				px := []float64{0, 10, 4, 7}[:n]
				py := []float64{3, 0, 10, 6}[:n]
				if k < n {
					px[k] = bad
				} else {
					py[k-n] = bad
				}
				tr := build(px, py)
				if l := stopLength(tr); !math.IsNaN(l) && !math.IsInf(l, 0) {
					t.Errorf("pins %v, %v: finite bound %v", px, py, l)
				}
				sameTree(t, "non-finite", tr, oracleBuild(px, py))
			}
		}
	}
}

// BenchmarkBuildInto rebuilds one warm tree per net degree: three pins, a
// separable four-pin staircase (optimum = HPWL), a crossing four-pin net
// (optimum = HPWL + min(h₂, v₂)) and an eight-pin heuristic net.
func BenchmarkBuildInto(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	px8, py8 := make([]float64, 8), make([]float64, 8)
	for i := range px8 {
		px8[i], py8[i] = rng.Float64()*100, rng.Float64()*100
	}
	for _, bc := range []struct {
		name   string
		px, py []float64
	}{
		{"3pin", []float64{0, 10, 4}, []float64{0, 3, 9}},
		{"4pin-separable", []float64{0, 4, 6, 10}, []float64{0, 3, 7, 10}},
		{"4pin-crossing", []float64{0, 4, 6, 10}, []float64{3, 10, 0, 7}},
		{"8pin", px8, py8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			tr, s := build(bc.px, bc.py), new(Scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildInto(tr, bc.px, bc.py, s)
			}
		})
	}
}
