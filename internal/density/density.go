// Package density implements the ePlace/DREAMPlace electrostatic density
// model: cells are charges, the bin-grid density is the charge distribution,
// Poisson's equation ∇²ψ = −ρ is solved spectrally (DCT, Neumann
// boundaries), and each cell feels a force proportional to the electric
// field at its location. The density penalty D(x, y) of Eq. 3 is the system
// potential energy; its gradient drives cells from dense into sparse
// regions.
package density

import (
	"fmt"
	"math"
	"math/bits"

	"dtgp/internal/fft"
	"dtgp/internal/geom"
	"dtgp/internal/parallel"
)

// Grid is the electrostatic bin grid over the placement region.
type Grid struct {
	M, N       int // bins in x and y (powers of two)
	Region     geom.Rect
	BinW, BinH float64
	// TargetDensity is the allowed movable-area fraction per bin.
	TargetDensity float64

	// Density is the total charge density per bin (movable + fixed),
	// row-major [ix*N + iy], normalised by bin area.
	Density []float64
	// FixedDensity is the precomputed contribution of fixed objects.
	FixedDensity []float64
	// Field ξ from the latest Solve.
	FieldX, FieldY []float64

	planX, planY *fft.DCTPlan
	psi          []float64 // potential coefficients ψ̂ of the latest Solve
	wu, wv       []float64 // spatial frequencies πu/(M·BinW), πv/(N·BinH)
	// movableArea of the last BuildDensity call (for overflow).
	movableArea float64

	// Line passes: the pass posted to the pool, its kernel, and one complex
	// line buffer of max(M,N) per worker.
	pass    linePass
	passFn  func(worker, lo, hi int)
	lineBuf []complex128
	// Reused scratch: the overflow histogram and the Gradient dispatch state.
	overBuf  []float64
	gradFn   func(i int)
	gx, gy   []float64
	gw, gh   []float64
	ggx, ggy []float64
}

// NewGrid creates a bin grid with m×n bins (powers of two) over region.
func NewGrid(region geom.Rect, m, n int, targetDensity float64) (*Grid, error) {
	if region.W() <= 0 || region.H() <= 0 {
		return nil, fmt.Errorf("density: empty region %v", region)
	}
	if targetDensity <= 0 || targetDensity > 1 {
		return nil, fmt.Errorf("density: target density %v out of (0,1]", targetDensity)
	}
	px, err := fft.NewDCTPlan(m)
	if err != nil {
		return nil, fmt.Errorf("density: %w", err)
	}
	py, err := fft.NewDCTPlan(n)
	if err != nil {
		return nil, fmt.Errorf("density: %w", err)
	}
	g := &Grid{
		M: m, N: n,
		Region:        region,
		BinW:          region.W() / float64(m),
		BinH:          region.H() / float64(n),
		TargetDensity: targetDensity,
		Density:       make([]float64, m*n),
		FixedDensity:  make([]float64, m*n),
		FieldX:        make([]float64, m*n),
		FieldY:        make([]float64, m*n),
		planX:         px,
		planY:         py,
		psi:           make([]float64, m*n),
		wu:            make([]float64, m),
		wv:            make([]float64, n),
	}
	for u := 0; u < m; u++ {
		g.wu[u] = math.Pi * float64(u) / float64(m) / g.BinW
	}
	for v := 0; v < n; v++ {
		g.wv[v] = math.Pi * float64(v) / float64(n) / g.BinH
	}
	g.overBuf = make([]float64, m*n)
	g.passFn = g.linePairs
	g.gradFn = func(i int) {
		we, he, scale := g.effectiveShape(g.gw[i], g.gh[i])
		cx := g.gx[i] + g.gw[i]/2 - we/2
		cy := g.gy[i] + g.gh[i]/2 - he/2
		fx, fy := g.fieldOverlap(cx, cy, we, he)
		// Negative: the field pushes charge toward lower potential. The
		// constant factor is immaterial — the placer calibrates λ against
		// the wirelength gradient magnitude.
		g.ggx[i] -= scale * fx
		g.ggy[i] -= scale * fy
	}
	return g, nil
}

// SetFixed rasterises fixed-object rectangles into FixedDensity. Call once
// before the placement loop.
func (g *Grid) SetFixed(rects []geom.Rect) {
	for i := range g.FixedDensity {
		g.FixedDensity[i] = 0
	}
	for _, r := range rects {
		clipped, ok := r.Intersect(g.Region)
		if !ok {
			continue
		}
		g.splat(clipped.Lo.X, clipped.Lo.Y, clipped.W(), clipped.H(), 1, g.FixedDensity)
	}
	// Fixed density saturates at the target: the solver should not push
	// cells away from a macro any harder than from a merely full bin.
	for i, v := range g.FixedDensity {
		if v > g.TargetDensity {
			g.FixedDensity[i] = g.TargetDensity
		}
	}
}

// splat adds a rectangle's area into bins, normalised by bin area, with
// charge scaled by `scale`.
//
//dtgp:hotpath
func (g *Grid) splat(x, y, w, h, scale float64, dst []float64) {
	if w <= 0 || h <= 0 {
		return
	}
	x0, y0 := x-g.Region.Lo.X, y-g.Region.Lo.Y
	ix0 := int(math.Floor(x0 / g.BinW))
	iy0 := int(math.Floor(y0 / g.BinH))
	ix1 := int(math.Ceil((x0 + w) / g.BinW))
	iy1 := int(math.Ceil((y0 + h) / g.BinH))
	if ix0 < 0 {
		ix0 = 0
	}
	if iy0 < 0 {
		iy0 = 0
	}
	if ix1 > g.M {
		ix1 = g.M
	}
	if iy1 > g.N {
		iy1 = g.N
	}
	binArea := g.BinW * g.BinH
	for ix := ix0; ix < ix1; ix++ {
		bx0 := float64(ix) * g.BinW
		ox := min(x0+w, bx0+g.BinW) - max(x0, bx0)
		if ox <= 0 {
			continue
		}
		for iy := iy0; iy < iy1; iy++ {
			by0 := float64(iy) * g.BinH
			oy := min(y0+h, by0+g.BinH) - max(y0, by0)
			if oy <= 0 {
				continue
			}
			dst[ix*g.N+iy] += scale * ox * oy / binArea
		}
	}
}

// effectiveShape applies ePlace's density smoothing: cells smaller than
// √2× the bin size are inflated to that size with proportionally reduced
// charge density, keeping total charge equal to the cell area.
//
//dtgp:hotpath
func (g *Grid) effectiveShape(w, h float64) (we, he, scale float64) {
	we, he = w, h
	scale = 1.0
	minW := math.Sqrt2 * g.BinW
	minH := math.Sqrt2 * g.BinH
	if we < minW {
		scale *= we / minW
		we = minW
	}
	if he < minH {
		scale *= he / minH
		he = minH
	}
	return we, he, scale
}

// BuildDensity recomputes the movable charge distribution from cell
// rectangles (lower-left + size) and adds the fixed contribution.
//
//dtgp:hotpath
func (g *Grid) BuildDensity(x, y, w, h []float64) {
	copy(g.Density, g.FixedDensity)
	g.movableArea = 0
	for i := range x {
		we, he, scale := g.effectiveShape(w[i], h[i])
		// Inflate around the cell center.
		cx := x[i] + w[i]/2 - we/2
		cy := y[i] + h[i]/2 - he/2
		g.splat(cx, cy, we, he, scale, g.Density)
		g.movableArea += w[i] * h[i]
	}
}

// Solve computes the field from the current Density via the spectral
// Poisson solution and returns the total electrostatic energy
// ½·Σ ρψ·binArea. It keeps the potential coefficients in psi but does
// not transform them: the placer needs only the field.
//
//dtgp:hotpath
//dtgp:forward(density, explicit-grad)
func (g *Grid) Solve() float64 {
	m, n := g.M, g.N
	// RHS: density relative to its mean (DC removed; the u=v=0 mode is
	// unconstrained under Neumann boundaries). FieldX holds the density
	// spectrum C until the loop below has consumed it.
	mean := 0.0
	for _, v := range g.Density {
		mean += v
	}
	mean /= float64(m * n)
	c := g.FieldX
	for i, v := range g.Density {
		c[i] = v - mean
	}

	// Forward 2-D DCT-II: rows (x), then columns (y).
	g.rows(c, dct2)
	g.cols(c, dct2)

	// ψ coefficients: divide by (w_u² + w_v²); field coefficients carry an
	// extra w factor. Frequencies are in spatial units so the field has
	// consistent dimensions across grid sizes. The overall (4/MN) inversion
	// factor is folded in here.
	//
	// Field ξx = −∂ψ/∂x = Σ_{u≥1} ψ_uv·wu·sin(wu·x)·cos(wv·y). DST-III
	// consumes the coefficient of sin(π(k+1)·)/… at slot k, so the u index
	// shifts down by one (slot m−1 gets the absent u=m term, i.e. zero);
	// ξy likewise in v. Row u−1 of FieldX is written only after it was read.
	//
	// Energy: with a_0 = ½ and a_k = 1 (the DCT-III weights), ψ =
	// Σ_uv a_u·a_v·ψ̂_uv·cos·cos, so Σ ρψ = Σ_uv a_u·a_v·ψ̂_uv·C_uv.
	norm := 4 / float64(m*n)
	e := 0.0
	for u := 0; u < m; u++ {
		wu := g.wu[u]
		for v, wv := range g.wv {
			idx := u*n + v
			psi := 0.0
			if den := wu*wu + wv*wv; den != 0 {
				psi = norm * c[idx] / den
			}
			ec := psi * c[idx]
			if u == 0 {
				ec /= 2
			}
			if v == 0 {
				ec /= 2
			}
			e += ec
			g.psi[idx] = psi
			if u > 0 {
				g.FieldX[idx-n] = psi * wu
			}
			if v > 0 {
				g.FieldY[idx-1] = psi * wv
			}
		}
		g.FieldY[u*n+n-1] = 0
	}
	clear(g.FieldX[(m-1)*n:])

	g.rows(g.FieldX, dst3)
	g.cols(g.FieldX, dct3)
	g.rows(g.FieldY, dct3)
	g.cols(g.FieldY, dst3)
	binArea := g.BinW * g.BinH
	return e * binArea / 2
}

// lineOp is the 1-D transform of a line pass.
type lineOp int8

const (
	dct2 lineOp = iota
	dct3
	dst3
)

// linePass is one paired transform over every line of a grid array: element
// i of line j sits at a[j*lineStride + i*elemStride].
type linePass struct {
	a                      []float64
	plan                   *fft.DCTPlan
	op                     lineOp
	lines                  int
	lineStride, elemStride int
}

// rows transforms along x (over u) for every v; "rows" are strided.
//
//dtgp:hotpath
func (g *Grid) rows(a []float64, op lineOp) {
	g.lines(linePass{a: a, plan: g.planX, op: op, lines: g.N, lineStride: 1, elemStride: g.N})
}

// cols transforms along y (over v) for every u; columns are contiguous.
//
//dtgp:hotpath
func (g *Grid) cols(a []float64, op lineOp) {
	g.lines(linePass{a: a, plan: g.planY, op: op, lines: g.M, lineStride: g.N, elemStride: 1})
}

// lines runs one pass as (lines+1)/2 line pairs on the pool. A pair costs
// about one length-L FFT: L·log₂L butterflies plus the L-element loads and
// stores.
//
//dtgp:hotpath
func (g *Grid) lines(ps linePass) {
	l := ps.plan.Len()
	if need := parallel.Workers() * max(g.M, g.N); len(g.lineBuf) < need {
		g.lineBuf = make([]complex128, need)
	}
	g.pass = ps
	parallel.ForWorker((ps.lines+1)/2, l*(bits.Len(uint(l))+2), g.passFn)
	g.pass.a = nil
}

// linePairs transforms line pairs [lo, hi) of the posted pass in worker w's
// buffer. Pair p is lines 2p and 2p+1 whatever the partition, so the result
// does not depend on the lane count. A lone line (a grid one bin wide) is
// both halves of its pair.
//
//dtgp:hotpath
func (g *Grid) linePairs(w, lo, hi int) {
	ps := &g.pass
	a, es, plan := ps.a, ps.elemStride, ps.plan
	l := plan.Len()
	stride := max(g.M, g.N)
	z := g.lineBuf[w*stride : w*stride+l]
	slot := plan.Slots()
	for p := lo; p < hi; p++ {
		o0 := 2 * p * ps.lineStride
		o1 := min(o0+ps.lineStride, (ps.lines-1)*ps.lineStride)
		if ps.op == dct2 {
			for i, s := range slot {
				z[s] = complex(a[o0+i*es], a[o1+i*es])
			}
			plan.DCT2Pair(z)
			for k, v := range z {
				a[o0+k*es] = real(v)
				a[o1+k*es] = imag(v)
			}
			continue
		}
		for k := range z {
			z[k] = complex(a[o0+k*es], a[o1+k*es])
		}
		if ps.op == dct3 {
			plan.DCT3Pair(z)
		} else {
			plan.DST3Pair(z)
		}
		for i, s := range slot {
			a[o0+i*es] = real(z[s])
			a[o1+i*es] = imag(z[s])
		}
	}
}

// Gradient accumulates the density gradient of each cell into
// (gradX, gradY): ∂D/∂x_i = −q_i·ξx(cell), with the charge spread over the
// bins the (smoothed) cell overlaps. Solve must have been called. Cells are
// independent (cell i writes only index i), so the loop runs on the pool.
//
//dtgp:hotpath
//dtgp:backward(density, explicit-grad)
func (g *Grid) Gradient(x, y, w, h, gradX, gradY []float64) {
	g.gx, g.gy, g.gw, g.gh = x, y, w, h
	g.ggx, g.ggy = gradX, gradY
	parallel.ForCost(len(x), parallel.CostDefault, g.gradFn)
	g.gx, g.gy, g.gw, g.gh = nil, nil, nil, nil
	g.ggx, g.ggy = nil, nil
}

// fieldOverlap integrates the field over the bins a rectangle overlaps.
//
//dtgp:hotpath
func (g *Grid) fieldOverlap(x, y, w, h float64) (fx, fy float64) {
	x0, y0 := x-g.Region.Lo.X, y-g.Region.Lo.Y
	ix0 := int(math.Floor(x0 / g.BinW))
	iy0 := int(math.Floor(y0 / g.BinH))
	ix1 := int(math.Ceil((x0 + w) / g.BinW))
	iy1 := int(math.Ceil((y0 + h) / g.BinH))
	if ix0 < 0 {
		ix0 = 0
	}
	if iy0 < 0 {
		iy0 = 0
	}
	if ix1 > g.M {
		ix1 = g.M
	}
	if iy1 > g.N {
		iy1 = g.N
	}
	for ix := ix0; ix < ix1; ix++ {
		bx0 := float64(ix) * g.BinW
		ox := min(x0+w, bx0+g.BinW) - max(x0, bx0)
		if ox <= 0 {
			continue
		}
		for iy := iy0; iy < iy1; iy++ {
			by0 := float64(iy) * g.BinH
			oy := min(y0+h, by0+g.BinH) - max(y0, by0)
			if oy <= 0 {
				continue
			}
			idx := ix*g.N + iy
			area := ox * oy
			fx += g.FieldX[idx] * area
			fy += g.FieldY[idx] * area
		}
	}
	return fx, fy
}

// Overflow returns the density overflow ratio: the total movable area in
// excess of each bin's target capacity, divided by total movable area. This
// is the placement stop criterion used in the paper's Fig. 8.
//
//dtgp:hotpath
func (g *Grid) Overflow(x, y, w, h []float64) float64 {
	over := g.overBuf
	copy(over, g.FixedDensity)
	for i := range x {
		// Raw (unsmoothed) footprints for the overflow metric.
		g.splat(x[i], y[i], w[i], h[i], 1, over)
	}
	binArea := g.BinW * g.BinH
	total, area := 0.0, 0.0
	for _, v := range over {
		if ex := v - g.TargetDensity; ex > 0 {
			total += ex * binArea
		}
	}
	for i := range x {
		area += w[i] * h[i]
	}
	if area == 0 {
		return 0
	}
	return total / area
}
