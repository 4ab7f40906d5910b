// Package fft provides the spectral kernels behind the ePlace-style
// electrostatic density model: a forward radix-2 complex FFT and the N-point
// DCT-II/DCT-III/DST-III, two real lines per complex FFT, that the spectral
// Poisson solver runs on the placement bin grid (Neumann boundaries).
package fft

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// errLength is Forward's misuse panic, preallocated so the check costs the
// hot path nothing.
var errLength = errors.New("fft: input length differs from the plan length")

// Plan caches twiddle factors and the bit-reversal permutation for a fixed
// power-of-two length.
type Plan struct {
	n       int
	rev     []int
	twiddle []complex128 // stage of half-size h at [h, 2h): exp(-πik/h), k < h
}

// NewPlan builds a plan for length n (must be a power of two ≥ 1).
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: length %d is not a power of two", n)
	}
	p := &Plan{n: n, rev: make([]int, n), twiddle: make([]complex128, n)}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range p.rev {
		p.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for h := 1; h < n; h <<= 1 {
		for k := 0; k < h; k++ {
			p.twiddle[h+k] = cmplx.Rect(1, -math.Pi*float64(k)/float64(h))
		}
	}
	return p, nil
}

// Forward computes the in-place forward DFT: X_k = Σ x_n e^{-2πikn/N}. The
// inverse DFT is its conjugate, x = conj(Forward(conj(X)))/N, so the kernel
// has no inverse branch.
//
//dtgp:hotpath
func (p *Plan) Forward(x []complex128) {
	n := p.n
	if len(x) != n {
		panic(errLength)
	}
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// The first stage's twiddle is 1.
	for i := 0; i+1 < n; i += 2 {
		a, b := x[i], x[i+1]
		x[i], x[i+1] = a+b, a-b
	}
	for half := 2; half < n; half <<= 1 {
		tw := p.twiddle[half : 2*half]
		for start := 0; start < n; start += 2 * half {
			lo, hi := x[start:start+half], x[start+half:start+2*half]
			for k, w := range tw {
				a, b := lo[k], hi[k]*w
				lo[k], hi[k] = a+b, a-b
			}
		}
	}
}
