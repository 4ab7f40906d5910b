package fft

import (
	"math"
	"math/cmplx"
)

// The DCT/DST conventions used by the Poisson solver:
//
//	DCT-II : C_k = Σ_{n=0}^{N-1} x_n cos(πk(2n+1)/(2N))
//	DCT-III: y_n = x_0/2 + Σ_{k=1}^{N-1} x_k cos(πk(2n+1)/(2N))
//	DST-III: y_n = Σ_{k=0}^{N-2} x_k sin(π(k+1)(2n+1)/(2N)) + (−1)^n x_{N−1}/2
//
// DCT-III is the (unnormalised) inverse of DCT-II: dct3(dct2(x)) = (N/2)·x.
// DST-III is derived from DCT-III via the identity
// dst3(x)_n = (−1)^n · dct3(reverse(x))_n, which is how the solver computes
// the sine-expanded electric field from cosine coefficients.
//
// All three run on one N-point FFT (Makhoul). Interleaving the line as
// v_m = x_{2m}, v_{N−1−m} = x_{2m+1} gives C_k = Re(e^{−iπk/(2N)}·V_k) with
// V = DFT(v); conversely V_k = e^{iπk/(2N)}·(C_k − i·C_{N−k}) (C_N = 0)
// rebuilds the spectrum DCT-III inverts. Both lines of a pair are real, so
// they share the FFT as z = a + i·b and separate through the conjugate
// symmetry of real spectra.

// DCTPlan holds the tables of the N-point paired transforms. It is read-only
// after construction, so one plan serves every worker; callers own the
// length-N complex line buffer each transform runs in.
type DCTPlan struct {
	n    int
	fft  *Plan
	slot []int        // slot[i]: buffer position of line element i
	rot  []complex128 // e^{−iπk/(2N)}
}

// NewDCTPlan builds a plan for length-n transforms (n a power of two).
func NewDCTPlan(n int) (*DCTPlan, error) {
	f, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	p := &DCTPlan{n: n, fft: f, slot: make([]int, n), rot: make([]complex128, n)}
	for i := 0; i < n; i++ {
		p.slot[i] = i / 2
		if i%2 == 1 {
			p.slot[i] = n - 1 - i/2
		}
		p.rot[i] = cmplx.Rect(1, -math.Pi*float64(i)/float64(2*n))
	}
	return p, nil
}

// Len returns the transform length.
//
//dtgp:hotpath
func (p *DCTPlan) Len() int { return p.n }

// Slots maps line element i to its buffer position Slots()[i]: DCT2Pair
// reads element i there, DCT3Pair and DST3Pair leave it there. Read-only.
//
//dtgp:hotpath
func (p *DCTPlan) Slots() []int { return p.slot }

// DCT2Pair computes the DCT-II of two lines a and b at once. On entry
// z[Slots()[i]] = a_i + i·b_i; on return z[k] = A_k + i·B_k.
//
//dtgp:hotpath
func (p *DCTPlan) DCT2Pair(z []complex128) {
	p.fft.Forward(z)
	n := p.n
	// V_a[k] = (Z_k + conj Z_{N−k})/2 and V_b[k] = (Z_k − conj Z_{N−k})/(2i);
	// slots k and N−k are finished together from the same two reads, with
	// V[N−k] = conj V[k]. At k = 0 the rotation is 1 and z[0] is already
	// A_0 + i·B_0.
	for k := 1; k <= n/2; k++ {
		zk, zn := z[k], cmplx.Conj(z[n-k])
		d := zk - zn
		va, vb := half(zk+zn), complex(imag(d)/2, -real(d)/2)
		rk, rn := p.rot[k], p.rot[n-k]
		z[k] = complex(real(rk*va), real(rk*vb))
		z[n-k] = complex(real(rn*cmplx.Conj(va)), real(rn*cmplx.Conj(vb)))
	}
}

// DCT3Pair computes the DCT-III of two lines A and B at once. On entry
// z[k] = A_k + i·B_k; on return z[Slots()[i]] = a_i + i·b_i.
//
//dtgp:hotpath
func (p *DCTPlan) DCT3Pair(z []complex128) {
	n := p.n
	// Pack Z = V_a + i·V_b. The inverse DFT y_m = ½·Σ_k Z_k e^{+2πikm/N}
	// is the forward FFT of the index-reversed spectrum z_j = Z_{−j}/2, so
	// slot k receives Z_{N−k} and slot N−k receives Z_k.
	z[0] = half(z[0])
	for k := 1; k <= n/2; k++ {
		xk, xn := z[k], z[n-k]
		zk := p.spectrum(k, real(xk), real(xn), imag(xk), imag(xn))
		zn := p.spectrum(n-k, real(xn), real(xk), imag(xn), imag(xk))
		z[k], z[n-k] = half(zn), half(zk)
	}
	p.fft.Forward(z)
}

// spectrum returns V_a[k] + i·V_b[k] from the line coefficients at k and
// N−k, with V[k] = e^{iπk/(2N)}·(X_k − i·X_{N−k}).
//
//dtgp:hotpath
func (p *DCTPlan) spectrum(k int, ak, an, bk, bn float64) complex128 {
	r := cmplx.Conj(p.rot[k])
	vb := r * complex(bk, -bn)
	return r*complex(ak, -an) + complex(-imag(vb), real(vb))
}

// DST3Pair computes the DST-III of two lines at once through the reversal
// identity, with the buffer layout of DCT3Pair.
//
//dtgp:hotpath
func (p *DCTPlan) DST3Pair(z []complex128) {
	n := p.n
	for k := 0; k < n/2; k++ {
		z[k], z[n-1-k] = z[n-1-k], z[k]
	}
	p.DCT3Pair(z)
	for i := 1; i < n; i += 2 {
		z[p.slot[i]] = -z[p.slot[i]]
	}
}

// half returns z/2 without a complex division.
//
//dtgp:hotpath
func half(z complex128) complex128 { return complex(real(z)/2, imag(z)/2) }
