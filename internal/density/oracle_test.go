package density

import (
	"math"
	"math/rand"
	"testing"

	"dtgp/internal/geom"
)

// splatOracle is splat with each per-bin overlap taken by math.Min and
// math.Max: the reference that the builtin min/max must match bit for bit.
func (g *Grid) splatOracle(x, y, w, h, scale float64, dst []float64) {
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
		ox := math.Min(x0+w, bx0+g.BinW) - math.Max(x0, bx0)
		if ox <= 0 {
			continue
		}
		for iy := iy0; iy < iy1; iy++ {
			by0 := float64(iy) * g.BinH
			oy := math.Min(y0+h, by0+g.BinH) - math.Max(y0, by0)
			if oy <= 0 {
				continue
			}
			dst[ix*g.N+iy] += scale * ox * oy / binArea
		}
	}
}

// fieldOverlapOracle is fieldOverlap with math.Min and math.Max, the
// reference for Gradient.
func (g *Grid) fieldOverlapOracle(x, y, w, h float64) (fx, fy float64) {
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
		ox := math.Min(x0+w, bx0+g.BinW) - math.Max(x0, bx0)
		if ox <= 0 {
			continue
		}
		for iy := iy0; iy < iy1; iy++ {
			by0 := float64(iy) * g.BinH
			oy := math.Min(y0+h, by0+g.BinH) - math.Max(y0, by0)
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

// oracleRects draws n random finite rectangles over g: a third with every
// edge on a bin boundary, a third that stick out of the region on some
// side, the rest anywhere inside it.
func oracleRects(rng *rand.Rand, g *Grid, n int) (x, y, w, h []float64) {
	x, y = make([]float64, n), make([]float64, n)
	w, h = make([]float64, n), make([]float64, n)
	lo, rw, rh := g.Region.Lo, g.Region.W(), g.Region.H()
	for i := range x {
		switch i % 3 {
		case 0:
			ix, iy := rng.Intn(g.M), rng.Intn(g.N)
			x[i] = lo.X + float64(ix)*g.BinW
			y[i] = lo.Y + float64(iy)*g.BinH
			w[i] = float64(1+rng.Intn(3)) * g.BinW
			h[i] = float64(1+rng.Intn(3)) * g.BinH
		case 1:
			w[i] = (0.2 + 4*rng.Float64()) * g.BinW
			h[i] = (0.2 + 4*rng.Float64()) * g.BinH
			x[i] = lo.X - w[i] + rng.Float64()*(rw+w[i])
			y[i] = lo.Y - h[i] + rng.Float64()*(rh+h[i])
			if rng.Intn(2) == 0 {
				x[i] = lo.X - w[i]/2
			} else {
				y[i] = lo.Y + rh - h[i]/2
			}
		default:
			w[i] = (0.1 + 3*rng.Float64()) * g.BinW
			h[i] = (0.1 + 3*rng.Float64()) * g.BinH
			x[i] = lo.X + rng.Float64()*(rw-w[i])
			y[i] = lo.Y + rng.Float64()*(rh-h[i])
		}
	}
	return x, y, w, h
}

// requireSameBits fails unless got and want hold the same float64 bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// TestKernelsMatchMinMaxOracle: SetFixed, BuildDensity, Gradient and
// Overflow with the builtin min/max match the math.Min/math.Max kernels
// bit for bit, on grids whose bin sizes are and are not exact binary
// fractions.
func TestKernelsMatchMinMaxOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, region := range []geom.Rect{
		geom.NewRect(0, 0, 640, 320),
		geom.NewRect(-13.7, 41.3, 1000.1, 777.7),
	} {
		g, err := NewGrid(region, 32, 16, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		fx, fy, fw, fh := oracleRects(rng, g, 12)
		fixed := make([]geom.Rect, len(fx))
		wantFixed := make([]float64, len(g.FixedDensity))
		for i := range fixed {
			fixed[i] = geom.NewRect(fx[i], fy[i], fx[i]+fw[i], fy[i]+fh[i])
			if c, ok := fixed[i].Intersect(g.Region); ok {
				g.splatOracle(c.Lo.X, c.Lo.Y, c.W(), c.H(), 1, wantFixed)
			}
		}
		for i, v := range wantFixed {
			wantFixed[i] = min(v, g.TargetDensity)
		}
		g.SetFixed(fixed)
		requireSameBits(t, "FixedDensity", g.FixedDensity, wantFixed)

		x, y, w, h := oracleRects(rng, g, 600)
		g.BuildDensity(x, y, w, h)
		want := append([]float64(nil), g.FixedDensity...)
		for i := range x {
			we, he, scale := g.effectiveShape(w[i], h[i])
			g.splatOracle(x[i]+w[i]/2-we/2, y[i]+h[i]/2-he/2, we, he, scale, want)
		}
		requireSameBits(t, "Density", g.Density, want)

		g.Solve()
		gx, gy := make([]float64, len(x)), make([]float64, len(x))
		g.Gradient(x, y, w, h, gx, gy)
		wx, wy := make([]float64, len(x)), make([]float64, len(x))
		for i := range x {
			we, he, scale := g.effectiveShape(w[i], h[i])
			ox, oy := g.fieldOverlapOracle(x[i]+w[i]/2-we/2, y[i]+h[i]/2-he/2, we, he)
			wx[i] -= scale * ox
			wy[i] -= scale * oy
		}
		requireSameBits(t, "gradX", gx, wx)
		requireSameBits(t, "gradY", gy, wy)

		over := append([]float64(nil), g.FixedDensity...)
		area, total, binArea := 0.0, 0.0, g.BinW*g.BinH
		for i := range x {
			g.splatOracle(x[i], y[i], w[i], h[i], 1, over)
			area += w[i] * h[i]
		}
		for _, v := range over {
			if ex := v - g.TargetDensity; ex > 0 {
				total += ex * binArea
			}
		}
		requireSameBits(t, "Overflow", []float64{g.Overflow(x, y, w, h)}, []float64{total / area})
	}
}
