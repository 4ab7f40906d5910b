package density

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/geom"
	"dtgp/internal/parallel"
)

// The O(N²) 1-D transforms, in the conventions of internal/fft.

func naiveDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := range out {
		for i, v := range x {
			out[k] += v * math.Cos(math.Pi*float64(k)*float64(2*i+1)/float64(2*n))
		}
	}
	return out
}

func naiveDCT3(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := range out {
		out[i] = x[0] / 2
		for k := 1; k < n; k++ {
			out[i] += x[k] * math.Cos(math.Pi*float64(k)*float64(2*i+1)/float64(2*n))
		}
	}
	return out
}

func naiveDST3(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := range out {
		for k := 0; k < n-1; k++ {
			out[i] += x[k] * math.Sin(math.Pi*float64(k+1)*float64(2*i+1)/float64(2*n))
		}
		out[i] += math.Pow(-1, float64(i)) * x[n-1] / 2
	}
	return out
}

// separable applies fx to every x line (fixed v) of an m×n row-major array,
// then fy to every y line (fixed u).
func separable(a []float64, m, n int, fx, fy func([]float64) []float64) []float64 {
	out := append([]float64(nil), a...)
	line := make([]float64, m)
	for v := 0; v < n; v++ {
		for u := range line {
			line[u] = out[u*n+v]
		}
		for u, r := range fx(line) {
			out[u*n+v] = r
		}
	}
	for u := 0; u < m; u++ {
		copy(out[u*n:(u+1)*n], fy(out[u*n:(u+1)*n]))
	}
	return out
}

// referenceSolve is the spectral solve written out with naive separable
// transforms: potential, field and energy ½·Σ(ρ−mean)·ψ·binArea.
func referenceSolve(g *Grid) (pot, fx, fy []float64, energy float64) {
	m, n := g.M, g.N
	mean := 0.0
	for _, v := range g.Density {
		mean += v
	}
	mean /= float64(m * n)
	rho := make([]float64, m*n)
	for i, v := range g.Density {
		rho[i] = v - mean
	}
	c := separable(rho, m, n, naiveDCT2, naiveDCT2)
	psi := make([]float64, m*n)
	cx := make([]float64, m*n)
	cy := make([]float64, m*n)
	for u := 0; u < m; u++ {
		for v := 0; v < n; v++ {
			wu, wv := math.Pi*float64(u)/float64(m)/g.BinW, math.Pi*float64(v)/float64(n)/g.BinH
			if den := wu*wu + wv*wv; den != 0 {
				psi[u*n+v] = 4 / float64(m*n) * c[u*n+v] / den
			}
			if u > 0 {
				cx[(u-1)*n+v] = psi[u*n+v] * wu
			}
			if v > 0 {
				cy[u*n+v-1] = psi[u*n+v] * wv
			}
		}
	}
	pot = separable(psi, m, n, naiveDCT3, naiveDCT3)
	fx = separable(cx, m, n, naiveDST3, naiveDCT3)
	fy = separable(cy, m, n, naiveDCT3, naiveDST3)
	for i := range pot {
		energy += rho[i] * pot[i]
	}
	return pot, fx, fy, energy * g.BinW * g.BinH / 2
}

func fillRandom(g *Grid, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Density {
		g.Density[i] = rng.Float64()
	}
}

// maxAbsDiff returns max|a−b| relative to max|b| (absolute when b is zero).
func maxAbsDiff(a, b []float64) float64 {
	d, scale := 0.0, 0.0
	for i := range a {
		d = math.Max(d, math.Abs(a[i]-b[i]))
		scale = math.Max(scale, math.Abs(b[i]))
	}
	if scale == 0 {
		return d
	}
	return d / scale
}

// TestSolveMatchesSeparableReference covers non-square grids, whose x and y
// plans and strides differ, and grids whose line counts leave a lone line to
// pair (one bin wide) or only one pair (2×2).
func TestSolveMatchesSeparableReference(t *testing.T) {
	for i, sz := range [][2]int{{16, 16}, {16, 64}, {64, 16}, {1, 16}, {16, 1}, {2, 2}, {1, 1}} {
		g, err := NewGrid(geom.NewRect(0, 0, 1000, 600), sz[0], sz[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(g, int64(i))
		e := g.Solve()
		pot, fx, fy, want := referenceSolve(g)
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"FieldX", g.FieldX, fx}, {"FieldY", g.FieldY, fy}, {"Potential", g.Potential(), pot}} {
			if d := maxAbsDiff(c.got, c.want); d > 1e-12 {
				t.Errorf("%dx%d %s: relative error %g", sz[0], sz[1], c.name, d)
			}
		}
		if math.Abs(e-want) > 1e-12*math.Abs(want) {
			t.Errorf("%dx%d energy %v, want %v", sz[0], sz[1], e, want)
		}
	}
}

// TestSpectralEnergyMatchesPotential: the energy Solve sums over spectral
// coefficients equals ½·Σ(ρ−mean)·ψ·binArea over the transformed potential.
func TestSpectralEnergyMatchesPotential(t *testing.T) {
	for i, sz := range [][2]int{{16, 16}, {16, 64}, {64, 64}} {
		g := newTestGrid(t, sz[0], sz[1])
		fillRandom(g, int64(20+i))
		e := g.Solve()
		mean := 0.0
		for _, v := range g.Density {
			mean += v
		}
		mean /= float64(len(g.Density))
		want := 0.0
		for j, p := range g.Potential() {
			want += (g.Density[j] - mean) * p
		}
		want *= g.BinW * g.BinH / 2
		if math.Abs(e-want) > 1e-12*math.Abs(want) {
			t.Errorf("%dx%d: spectral energy %v, from potential %v", sz[0], sz[1], e, want)
		}
	}
}

// TestSolveDeterministicAcrossWorkers: line pairs are fixed by index, not by
// the partition, so every lane count gives bitwise the same field and
// energy. 128×64 is large enough for both passes to fan out.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	g := newTestGrid(t, 128, 64)
	fillRandom(g, 30)
	var fx0, fy0, pot0 []float64
	var e0 float64
	for _, w := range []int{1, 2, 4} {
		parallel.SetWorkers(w)
		e := g.Solve()
		pot := g.Potential()
		if w == 1 {
			fx0 = append([]float64(nil), g.FieldX...)
			fy0 = append([]float64(nil), g.FieldY...)
			pot0 = append([]float64(nil), pot...)
			e0 = e
			continue
		}
		if e != e0 {
			t.Errorf("workers=%d: energy %v != %v", w, e, e0)
		}
		for i := range fx0 {
			if g.FieldX[i] != fx0[i] || g.FieldY[i] != fy0[i] || pot[i] != pot0[i] {
				t.Fatalf("workers=%d: bin %d differs from the serial solve", w, i)
			}
		}
	}
}

func TestSolveAllocFree(t *testing.T) {
	for _, sz := range [][2]int{{64, 64}, {128, 128}} {
		g := newTestGrid(t, sz[0], sz[1])
		fillRandom(g, 40)
		g.Solve()
		if a := testing.AllocsPerRun(20, func() { g.Solve() }); a != 0 {
			t.Errorf("%dx%d: Solve allocates %v times per call", sz[0], sz[1], a)
		}
	}
}

func benchmarkSolve(b *testing.B, bins int) {
	g, err := NewGrid(geom.NewRect(0, 0, 1000, 1000), bins, bins, 1)
	if err != nil {
		b.Fatal(err)
	}
	fillRandom(g, 50)
	g.Solve()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Solve()
	}
}

func BenchmarkSolve64(b *testing.B)  { benchmarkSolve(b, 64) }
func BenchmarkSolve512(b *testing.B) { benchmarkSolve(b, 512) }
