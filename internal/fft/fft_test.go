package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestNewPlanRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) accepted", n)
		}
		if _, err := NewDCTPlan(n); err == nil {
			t.Errorf("NewDCTPlan(%d) accepted", n)
		}
	}
	if _, err := NewPlan(1); err != nil {
		t.Errorf("NewPlan(1): %v", err)
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for i := 0; i < n; i++ {
			angle := -2 * math.Pi * float64(k) * float64(i) / float64(n)
			s += x[i] * cmplx.Rect(1, angle)
		}
		out[k] = s
	}
	return out
}

// naiveDCT2 is the O(N²) oracle for DCT-II.
func naiveDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x[i] * math.Cos(math.Pi*float64(k)*float64(2*i+1)/float64(2*n))
		}
		out[k] = s
	}
	return out
}

// naiveDCT3 is the O(N²) oracle for DCT-III.
func naiveDCT3(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := x[0] / 2
		for k := 1; k < n; k++ {
			s += x[k] * math.Cos(math.Pi*float64(k)*float64(2*i+1)/float64(2*n))
		}
		out[i] = s
	}
	return out
}

// naiveDST3 is the O(N²) oracle for DST-III.
func naiveDST3(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for k := 0; k < n-1; k++ {
			s += x[k] * math.Sin(math.Pi*float64(k+1)*float64(2*i+1)/float64(2*n))
		}
		if i%2 == 0 {
			s += x[n-1] / 2
		} else {
			s -= x[n-1] / 2
		}
		out[i] = s
	}
	return out
}

// pairOp names one paired transform for the helpers below.
type pairOp int

const (
	opDCT2 pairOp = iota
	opDCT3
	opDST3
)

// runPair transforms lines a and b together and returns both results, going
// through the plan's buffer layout the way the density solver does.
func runPair(p *DCTPlan, op pairOp, a, b []float64) (ra, rb []float64) {
	n := p.Len()
	z := make([]complex128, n)
	ra, rb = make([]float64, n), make([]float64, n)
	slot := p.Slots()
	if op == opDCT2 {
		for i, s := range slot {
			z[s] = complex(a[i], b[i])
		}
		p.DCT2Pair(z)
		for k, v := range z {
			ra[k], rb[k] = real(v), imag(v)
		}
		return ra, rb
	}
	for k := range z {
		z[k] = complex(a[k], b[k])
	}
	if op == opDCT3 {
		p.DCT3Pair(z)
	} else {
		p.DST3Pair(z)
	}
	for i, s := range slot {
		ra[i], rb[i] = real(z[s]), imag(z[s])
	}
	return ra, rb
}

func randLine(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// checkPairMatchesNaive compares both halves of every paired transform with
// the oracle applied to each line alone.
func checkPairMatchesNaive(t *testing.T, op pairOp, seed int64, oracle func([]float64) []float64, sizes []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, n := range sizes {
		p, err := NewDCTPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		a, b := randLine(rng, n), randLine(rng, n)
		ga, gb := runPair(p, op, a, b)
		wa, wb := oracle(a), oracle(b)
		for k := 0; k < n; k++ {
			if math.Abs(ga[k]-wa[k]) > 1e-12*float64(n) || math.Abs(gb[k]-wb[k]) > 1e-12*float64(n) {
				t.Fatalf("op %d n=%d k=%d: (%v, %v) vs (%v, %v)", op, n, k, ga[k], gb[k], wa[k], wb[k])
			}
		}
	}
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d k=%d: %v vs %v", n, k, got[k], want[k])
			}
		}
	}
}

// TestForwardInverseRoundTrip: the conjugate trick inverts the forward-only
// kernel, x = conj(Forward(conj(Forward(x))))/N.
func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 8, 128, 1024} {
		p, _ := NewPlan(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		p.Forward(y)
		for i := range y {
			y[i] = cmplx.Conj(y[i])
		}
		p.Forward(y)
		for i := range x {
			got := cmplx.Conj(y[i]) / complex(float64(n), 0)
			if cmplx.Abs(got-x[i]) > 1e-10*float64(n) {
				t.Fatalf("n=%d: round trip failed at %d: %v vs %v", n, i, got, x[i])
			}
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 256
	p, _ := NewPlan(n)
	x := make([]complex128, n)
	var te float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), 0)
		te += real(x[i]) * real(x[i])
	}
	p.Forward(x)
	var fe float64
	for _, v := range x {
		fe += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(fe/float64(n)-te) > 1e-8*te {
		t.Errorf("Parseval violated: %v vs %v", fe/float64(n), te)
	}
}

func TestDCT2MatchesNaive(t *testing.T) {
	checkPairMatchesNaive(t, opDCT2, 4, naiveDCT2, []int{1, 2, 4, 16, 64, 256})
}

func TestDCT3MatchesNaive(t *testing.T) {
	checkPairMatchesNaive(t, opDCT3, 5, naiveDCT3, []int{1, 2, 4, 16, 64, 256})
}

func TestDST3MatchesNaive(t *testing.T) {
	checkPairMatchesNaive(t, opDST3, 6, naiveDST3, []int{1, 2, 4, 16, 64, 256})
}

func TestDCT2DCT3Inverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 128
	p, _ := NewDCTPlan(n)
	a, b := randLine(rng, n), randLine(rng, n)
	ca, cb := runPair(p, opDCT2, a, b)
	ya, yb := runPair(p, opDCT3, ca, cb)
	for i := range a {
		wa, wb := float64(n)/2*a[i], float64(n)/2*b[i]
		if math.Abs(ya[i]-wa) > 1e-10*float64(n) || math.Abs(yb[i]-wb) > 1e-10*float64(n) {
			t.Fatalf("dct3∘dct2 != N/2·id at %d: (%v, %v) vs (%v, %v)", i, ya[i], yb[i], wa, wb)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	p, _ := NewPlan(1024)
	x := make([]complex128, 1024)
	for i := range x {
		x[i] = complex(float64(i%17), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

// BenchmarkDCT2Pair512 times one paired 512-point DCT-II: two lines of a
// 512×512 density grid.
func BenchmarkDCT2Pair512(b *testing.B) {
	p, _ := NewDCTPlan(512)
	z := make([]complex128, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range z {
			z[k] = complex(float64(k%13), float64(k%7))
		}
		p.DCT2Pair(z)
	}
}

func TestDCTPlanSize1(t *testing.T) {
	p, err := NewDCTPlan(1)
	if err != nil {
		t.Fatal(err)
	}
	a, b := runPair(p, opDCT2, []float64{3.5}, []float64{-1})
	if a[0] != 3.5 || b[0] != -1 {
		t.Errorf("DCT2 size-1 = %v, %v", a[0], b[0])
	}
	a, b = runPair(p, opDCT3, []float64{3.5}, []float64{-1})
	if a[0] != 1.75 || b[0] != -0.5 { // x_0/2 by the DCT-III convention
		t.Errorf("DCT3 size-1 = %v, %v", a[0], b[0])
	}
}

func TestDCT2Linearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 64
	p, _ := NewDCTPlan(n)
	a, b := randLine(rng, n), randLine(rng, n)
	sum := make([]float64, n)
	for i := range a {
		sum[i] = 2*a[i] + 3*b[i]
	}
	ta, tb := runPair(p, opDCT2, a, b)
	ts, _ := runPair(p, opDCT2, sum, a)
	for i := range ts {
		if math.Abs(ts[i]-(2*ta[i]+3*tb[i])) > 1e-9 {
			t.Fatalf("not linear at %d", i)
		}
	}
}

func TestForwardPanicsOnWrongLength(t *testing.T) {
	p, _ := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong input length")
		}
	}()
	p.Forward(make([]complex128, 4))
}
