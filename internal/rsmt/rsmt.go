// Package rsmt constructs rectilinear Steiner minimal trees for nets. It
// replaces FLUTE (which the paper itself notes is swappable, §3.4.1): exact
// trees for nets of up to four pins via Hanan-grid enumeration, which stops
// at the first candidate reaching the closed-form optimal length, and a
// Prim spanning tree refined by greedy Steiner-point insertion
// (Borah–Owens–Irwin style) for larger nets.
//
// Every Steiner node records which pin owns its x coordinate and which pin
// owns its y coordinate (the Hanan-grid property guarantees such owners
// exist). This attribution implements the paper's Fig. 4 exactly: a gradient
// landing on a Steiner point is forwarded to the pins whose movement drags
// that point's branch along.
package rsmt

import "math"

// Tree is a rectilinear Steiner tree over a net's pins.
//
// Nodes 0..NumPins-1 are the pins in input order; the remaining nodes are
// Steiner points. Edge lengths are Manhattan distances between endpoint
// nodes (an L-shaped route has exactly that wirelength, so no bend nodes
// are needed for RC extraction).
type Tree struct {
	//dtgp:cached by=BuildInto,UpdateFromPins
	X, Y []float64 //dtgp:index domain=snode
	//dtgp:cached by=BuildInto
	NumPins int
	// Edges connect node indices; the tree has len(X)-1 edges when
	// len(X) > 0 and the net is connected.
	//dtgp:cached by=BuildInto
	Edges [][2]int32
	// XPin[i] / YPin[i] give the pin index (0..NumPins-1) whose x (resp.
	// y) coordinate determines node i's x (resp. y). For pins these are
	// the identity.
	//dtgp:cached by=BuildInto
	XPin, YPin []int32 //dtgp:index domain=snode elem=npin
}

// NumNodes returns the node count including Steiner points.
func (t *Tree) NumNodes() int { return len(t.X) }

// UpdateFromPins refreshes all node coordinates from new pin locations
// without rebuilding topology — the paper's Steiner-reuse strategy (§3.6):
// Steiner points move along with the pins that own their branches.
//
//dtgp:hotpath
//dtgp:index px=npin py=npin
func (t *Tree) UpdateFromPins(px, py []float64) {
	for i := range t.X {
		t.X[i] = px[t.XPin[i]]
		t.Y[i] = py[t.YPin[i]]
	}
}

// hanan is a candidate Steiner point on the Hanan grid, tagged with the pins
// that own its coordinates.
type hanan struct {
	x, y       float64
	xPin, yPin int32
}

// Scratch bundles every working buffer the construction path needs. Its
// owner keeps it across builds (one per worker: builds running at the same
// time need separate scratch), so a warm scratch makes BuildInto
// allocation-free apart from growth of the Tree itself. Trees outlive the
// call (the timer keeps them across iterations), so anything stored into
// the Tree is copied out of the scratch first. The zero value is ready.
type Scratch struct {
	mst       mstScratch
	cands     []hanan
	bestEdges [][2]int32
	bestPts   []hanan
	deg       []int
	adj       [][]int32
}

// BuildInto rebuilds t in place over new pin coordinates, reusing its slice
// capacity and the caller's construction scratch s. With a warm tree and a
// warm scratch, a rebuild allocates nothing. Returns t.
//
//dtgp:hotpath
//dtgp:index px=npin py=npin
func BuildInto(t *Tree, px, py []float64, s *Scratch) *Tree {
	n := len(px)
	// The previous Edges backing is owned by t; keep it aside so the final
	// copy out of scratch can reuse it.
	owned := t.Edges[:0]
	t.X = append(t.X[:0], px...)
	t.Y = append(t.Y[:0], py...)
	t.NumPins = n
	t.XPin = t.XPin[:0]
	t.YPin = t.YPin[:0]
	t.Edges = nil
	for i := 0; i < n; i++ {
		t.XPin = append(t.XPin, int32(i))
		t.YPin = append(t.YPin, int32(i))
	}
	switch {
	case n <= 1:
		t.Edges = owned
		return t
	case n == 2:
		t.Edges = append(owned, [2]int32{0, 1})
		return t
	}
	if n <= 4 {
		buildExact(t, s)
	} else {
		buildHeuristic(t, s)
	}
	// The edge list aliases scratch buffers; copy into the owned backing.
	t.Edges = append(owned, t.Edges...)
	return t
}

//dtgp:hotpath
//dtgp:index a=snode b=snode
func dist(t *Tree, a, b int32) float64 {
	return math.Abs(t.X[a]-t.X[b]) + math.Abs(t.Y[a]-t.Y[b])
}

// mstScratch holds Prim working arrays so repeated MST evaluations (the
// Hanan-subset enumeration runs up to 79 per 4-pin net) reuse one
// allocation set.
type mstScratch struct {
	inTree []bool
	best   []float64
	from   []int32
	edges  [][2]int32
}

//dtgp:hotpath
func (s *mstScratch) ensure(n int) {
	if cap(s.inTree) < n {
		s.inTree = make([]bool, n)
		s.best = make([]float64, n)
		s.from = make([]int32, n)
		s.edges = make([][2]int32, 0, n-1)
	}
	s.inTree = s.inTree[:n]
	s.best = s.best[:n]
	s.from = s.from[:n]
	for i := 0; i < n; i++ {
		s.inTree[i] = false
		s.from[i] = 0
	}
}

// mstEdges computes a rectilinear minimum spanning tree over nodes [0, n)
// of t with Prim's algorithm (O(n²), fine for net degrees seen in practice).
// The returned slice aliases the scratch and is valid until the next call.
//
//dtgp:hotpath
func mstEdges(t *Tree, n int, s *mstScratch) [][2]int32 {
	if n < 2 {
		return nil
	}
	s.ensure(n)
	inTree, best, from := s.inTree, s.best, s.from
	for i := range best {
		best[i] = math.Inf(1)
	}
	inTree[0] = true
	for i := 1; i < n; i++ {
		best[i] = dist(t, 0, int32(i))
		from[i] = 0
	}
	edges := s.edges[:0]
	for added := 1; added < n; added++ {
		minD, minI := math.Inf(1), -1
		for i := 0; i < n; i++ {
			if !inTree[i] && best[i] < minD {
				minD, minI = best[i], i
			}
		}
		if minI < 0 {
			break
		}
		inTree[minI] = true
		edges = append(edges, [2]int32{from[minI], int32(minI)})
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := dist(t, int32(minI), int32(i)); d < best[i] {
					best[i], from[i] = d, int32(minI)
				}
			}
		}
	}
	s.edges = edges
	return edges
}

// tryExact materialises pts as extra nodes, measures the MST over pins ∪
// pts, and records it in the scratch's best slots when strictly better (so
// the empty subset — the plain MST — wins ties and useless degree-2 Steiner
// candidates are avoided). Nodes are rolled back before returning.
//
//dtgp:hotpath
func tryExact(t *Tree, s *Scratch, pts []hanan, bestLen *float64) {
	base := len(t.X)
	for _, h := range pts {
		t.X = append(t.X, h.x)
		t.Y = append(t.Y, h.y)
	}
	edges := mstEdges(t, base+len(pts), &s.mst)
	length := 0.0
	for _, e := range edges {
		length += dist(t, e[0], e[1])
	}
	if length < *bestLen-1e-12 {
		*bestLen = length
		s.bestEdges = append(s.bestEdges[:0], edges...)
		s.bestPts = append(s.bestPts[:0], pts...)
	}
	t.X = t.X[:base]
	t.Y = t.Y[:base]
}

// stopLength returns the length at which buildExact may stop: the RSMT
// length of the tree's pins in closed form — HPWL, plus min(x₍₃₎−x₍₂₎,
// y₍₃₎−y₍₂₎) when four pins' two leftmost are neither their two lowest nor
// their two highest — less a 2⁻⁴⁹·opt margin, never below the HPWL, so
// that rounding cannot let a later co-optimal tree undercut the incumbent
// by the 1e-12 hysteresis (DESIGN.md §15).
//
//dtgp:hotpath
func stopLength(t *Tree) float64 {
	n := t.NumPins
	minX, maxX := t.X[0], t.X[0]
	minY, maxY := t.Y[0], t.Y[0]
	for i := 1; i < n; i++ {
		minX = min(minX, t.X[i])
		maxX = max(maxX, t.X[i])
		minY = min(minY, t.Y[i])
		maxY = max(maxY, t.Y[i])
	}
	hpwl := (maxX - minX) + (maxY - minY)
	if n < 4 {
		return hpwl
	}
	x2, x3, left := middle4(t.X)
	y2, y3, low := middle4(t.Y)
	if left == low || left == low^0b1111 {
		return hpwl
	}
	opt := hpwl + min(x3-x2, y3-y2)
	return max(hpwl, opt-opt*0x1p-49)
}

// middle4 returns the second and third smallest of v[0..3] and the bit set
// of the two indices holding the smallest two (insertion sort).
//
//dtgp:hotpath
//dtgp:index v=snode
func middle4(v []float64) (second, third float64, lowest uint8) {
	var s [4]float64
	var m [4]uint8
	for i := 0; i < 4; i++ {
		j := i
		for ; j > 0 && v[i] < s[j-1]; j-- {
			s[j], m[j] = s[j-1], m[j-1]
		}
		s[j], m[j] = v[i], 1<<i
	}
	return s[1], s[2], m[0] | m[1]
}

// buildExact finds an optimal RSMT for 3–4 pins by enumerating Hanan-grid
// Steiner point subsets of size ≤ n−2 and taking the spanning tree of
// pins ∪ subset with minimum length.
//
//dtgp:hotpath
func buildExact(t *Tree, s *Scratch) {
	n := t.NumPins
	cands := s.cands[:0]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			cands = append(cands, hanan{t.X[i], t.Y[j], int32(i), int32(j)})
		}
	}
	s.cands = cands

	// No tree over the pins is shorter than the optimum, and tryExact only
	// replaces the incumbent on a *strictly* better length, so once the
	// incumbent reaches the bound no later candidate can win and the
	// enumeration stops with the tree the full enumeration returns. A
	// non-finite pin makes the bound non-finite: only the MST is tried.
	lower := stopLength(t) + 1e-12

	bestLen := math.Inf(1)
	s.bestEdges = s.bestEdges[:0]
	s.bestPts = s.bestPts[:0]

	tryExact(t, s, nil, &bestLen)
	for i := 0; i < len(cands) && bestLen > lower; i++ {
		tryExact(t, s, cands[i:i+1], &bestLen)
	}
	for i := 0; n == 4 && i < len(cands) && bestLen > lower; i++ {
		for j := i + 1; j < len(cands) && bestLen > lower; j++ {
			pair := [2]hanan{cands[i], cands[j]}
			tryExact(t, s, pair[:], &bestLen)
		}
	}

	for _, h := range s.bestPts {
		t.X = append(t.X, h.x)
		t.Y = append(t.Y, h.y)
		t.XPin = append(t.XPin, h.xPin)
		t.YPin = append(t.YPin, h.yPin)
	}
	t.Edges = pruneDegenerate(t, s.bestEdges, s)
}

// pruneDegenerate removes Steiner nodes of degree ≤ 2 by splicing their
// edges together (a degree-2 Steiner point on a Manhattan path is free but
// pointless; degree-0/1 are dead). Pins are never removed. The edge list is
// filtered in place: every iteration removes at least one more edge than it
// adds, so the write index never catches the read index.
//
//dtgp:hotpath
func pruneDegenerate(t *Tree, edges [][2]int32, s *Scratch) [][2]int32 {
	for {
		if cap(s.deg) < len(t.X) {
			s.deg = make([]int, len(t.X))
		}
		deg := s.deg[:len(t.X)]
		for i := range deg {
			deg[i] = 0
		}
		for _, e := range edges {
			deg[e[0]]++
			deg[e[1]]++
		}
		victim := int32(-1)
		for i := t.NumPins; i < len(t.X); i++ {
			if deg[i] <= 2 {
				victim = int32(i)
				break
			}
		}
		if victim < 0 {
			return edges
		}
		keep := edges[:0]
		var nbrs [2]int32
		nn := 0
		for _, e := range edges {
			switch {
			case e[0] == victim:
				nbrs[nn] = e[1]
				nn++
			case e[1] == victim:
				nbrs[nn] = e[0]
				nn++
			default:
				keep = append(keep, e)
			}
		}
		if nn == 2 {
			keep = append(keep, [2]int32{nbrs[0], nbrs[1]})
		}
		// Remove the node, remapping indices above it.
		t.X = append(t.X[:victim], t.X[victim+1:]...)
		t.Y = append(t.Y[:victim], t.Y[victim+1:]...)
		t.XPin = append(t.XPin[:victim], t.XPin[victim+1:]...)
		t.YPin = append(t.YPin[:victim], t.YPin[victim+1:]...)
		for i := range keep {
			for k := 0; k < 2; k++ {
				if keep[i][k] > victim {
					keep[i][k]--
				}
			}
		}
		edges = keep
	}
}

// buildHeuristic: Prim MST + greedy Steiner insertion. For every tree node
// u with two neighbours v, w, the Hanan point s = (med(xu,xv,xw),
// med(yu,yv,yw)) replaces edges (u,v),(u,w) with (u,s),(v,s),(w,s); the
// insertion with the largest positive gain is applied repeatedly.
//
//dtgp:hotpath
func buildHeuristic(t *Tree, s *Scratch) {
	n := t.NumPins
	t.Edges = mstEdges(t, n, &s.mst)

	type cand struct {
		u, v, w int32
		gain    float64
	}

	for pass := 0; pass < len(t.X)+8; pass++ {
		// Rebuild adjacency in reused buffers (inner slices keep their
		// capacity across passes and across builds into one scratch).
		if cap(s.adj) < len(t.X) {
			s.adj = append(s.adj[:cap(s.adj)], make([][]int32, len(t.X)-cap(s.adj))...)
		}
		a := s.adj[:len(t.X)]
		for i := range a {
			a[i] = a[i][:0]
		}
		for _, e := range t.Edges {
			a[e[0]] = append(a[e[0]], e[1])
			a[e[1]] = append(a[e[1]], e[0])
		}
		s.adj = a[:len(t.X)]

		best := cand{gain: 1e-9}
		for u := int32(0); int(u) < len(t.X); u++ {
			nb := a[u]
			for i := 0; i < len(nb); i++ {
				for j := i + 1; j < len(nb); j++ {
					v, w := nb[i], nb[j]
					sx := median3(t.X[u], t.X[v], t.X[w])
					sy := median3(t.Y[u], t.Y[v], t.Y[w])
					old := dist(t, u, v) + dist(t, u, w)
					nw := l1(t.X[u]-sx, t.Y[u]-sy) + l1(t.X[v]-sx, t.Y[v]-sy) + l1(t.X[w]-sx, t.Y[w]-sy)
					if g := old - nw; g > best.gain {
						best = cand{u, v, w, g}
					}
				}
			}
		}
		if best.gain <= 1e-9 {
			break
		}
		u, v, w := best.u, best.v, best.w
		sx, sxo := median3Owner(t.X[u], t.X[v], t.X[w], u, v, w)
		sy, syo := median3Owner(t.Y[u], t.Y[v], t.Y[w], u, v, w)
		sn := int32(len(t.X))
		t.X = append(t.X, sx)
		t.Y = append(t.Y, sy)
		t.XPin = append(t.XPin, t.XPin[sxo])
		t.YPin = append(t.YPin, t.YPin[syo])
		// Filter in place: two edges leave, three arrive; a backing grown
		// past the scratch's goes back to the scratch for later builds.
		keep := t.Edges[:0]
		for _, e := range t.Edges {
			if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) ||
				(e[0] == u && e[1] == w) || (e[0] == w && e[1] == u) {
				continue
			}
			keep = append(keep, e)
		}
		t.Edges = append(keep, [2]int32{u, sn}, [2]int32{v, sn}, [2]int32{w, sn})
		s.mst.edges = t.Edges[:0]
	}
	t.Edges = pruneDegenerate(t, t.Edges, s)
}

//dtgp:hotpath
func l1(dx, dy float64) float64 { return math.Abs(dx) + math.Abs(dy) }

//dtgp:hotpath
func median3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// median3Owner returns the median of three values together with the node
// that contributed it (ties resolved toward the first occurrence, which
// keeps attribution deterministic — the same order a stable sort yields).
//
//dtgp:hotpath
func median3Owner(a, b, c float64, na, nb, nc int32) (float64, int32) {
	v0, n0, v1, n1, v2, n2 := a, na, b, nb, c, nc
	if v1 < v0 {
		v0, v1, n0, n1 = v1, v0, n1, n0
	}
	if v2 < v1 {
		v1, n1, v2, n2 = v2, n2, v1, n1
		if v1 < v0 {
			v0, v1, n0, n1 = v1, v0, n1, n0
		}
	}
	return v1, n1
}
