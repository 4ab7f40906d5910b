// Package core implements the paper's contribution: a differentiable static
// timing engine (§3) that computes smoothed TNS/WNS objectives and their
// exact analytic gradients with respect to every cell location, by
// backpropagating through the levelized timing graph (Eq. 10, 12), the
// Elmore delay model (Eq. 8) and the Steiner-tree geometry (Fig. 4).
package core

import "math"

// SoftNeg is the smooth version of min(0, s) used inside the TNS objective:
//
//	softneg_γ(s) = −γ·log(1 + exp(−s/γ))
//
// It approaches s for s ≪ 0 and 0 for s ≫ 0.
//
//dtgp:hotpath
//dtgp:forward(softneg, explicit-grad)
func SoftNeg(gamma, s float64) float64 {
	return -gamma * softplus(-s/gamma)
}

// SoftNegGrad returns softneg and d softneg/ds = σ(−s/γ) ∈ (0, 1).
//
//dtgp:hotpath
//dtgp:backward(softneg, explicit-grad)
func SoftNegGrad(gamma, s float64) (float64, float64) {
	return SoftNeg(gamma, s), sigmoid(-s / gamma)
}

// softplus computes log(1+exp(x)) without overflow.
//
//dtgp:hotpath
func softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

//dtgp:hotpath
func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
