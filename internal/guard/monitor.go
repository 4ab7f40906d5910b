package guard

import "math"

// Obs is one iteration's health observation. It is assembled by the engine
// from quantities it already computes (plus the ScanVec scans) and passed
// by value, so observation allocates nothing.
type Obs struct {
	// Iter is the optimizer iteration the observation belongs to.
	Iter int
	// GradNorm is the L1 norm of the (preconditioned) step gradient.
	GradNorm float64
	// NonFinitePos / NonFiniteGrad / NonFiniteTiming count NaN/Inf entries
	// found in the position vector, the gradient vector, and the
	// differentiable-timer state respectively.
	NonFinitePos, NonFiniteGrad, NonFiniteTiming int
	// Alpha, Lambda and Overflow are the scalar optimizer state.
	Alpha, Lambda, Overflow float64
}

// The monitor's thresholds. A gradient norm above explodeFactor × the
// median of the last window healthy norms is an explosion, once minHistory
// norms are in; a full oscWindow of overflow swings larger than oscDelta
// that all flip direction is an oscillation; degradeStreak consecutive
// degrading observations escalate to diverged.
const (
	explodeFactor = 50
	window        = 32
	minHistory    = 8
	oscWindow     = 12
	oscDelta      = 0.02
	degradeStreak = 3
)

// Monitor is the zero-alloc numerical health monitor. All windows are
// preallocated at construction; Observe performs only in-place ring-buffer
// updates and an insertion sort into owned scratch.
type Monitor struct {
	// Trailing window of healthy gradient norms (ring) and the sort
	// scratch the median is computed in.
	normWin    []float64
	normSorted []float64
	normN      int
	normIdx    int

	// Trailing window of density overflows (ring) for oscillation
	// detection.
	ovWin  []float64
	ovN    int
	ovIdx  int
	streak int
}

// NewMonitor builds a monitor.
func NewMonitor() *Monitor {
	return &Monitor{
		normWin:    make([]float64, window),
		normSorted: make([]float64, window),
		ovWin:      make([]float64, oscWindow),
	}
}

// nonFinite reports NaN or ±Inf.
//
//dtgp:hotpath
func nonFinite(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0)
}

// ScanVec scans a vector for non-finite entries and accumulates its L1
// norm in index order (deterministic and allocation-free). The norm of a
// vector containing non-finite entries is unspecified; callers must gate
// on the count first.
//
//dtgp:hotpath
func ScanVec(v []float64) (nonFinite int, l1 float64) {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			nonFinite++
			continue
		}
		l1 += math.Abs(x)
	}
	return nonFinite, l1
}

// Observe classifies one iteration. Healthy samples extend the trailing
// windows; non-healthy ones leave the norm window untouched (an exploded
// norm must not poison its own baseline) and bump the degradation streak.
//
//dtgp:hotpath
func (m *Monitor) Observe(o Obs) (Health, Reason) {
	switch {
	case o.NonFinitePos > 0:
		return Diverged, ReasonNonFinitePos
	case o.NonFiniteGrad > 0:
		return Diverged, ReasonNonFiniteGrad
	case o.NonFiniteTiming > 0:
		return Diverged, ReasonNonFiniteTiming
	case nonFinite(o.Alpha) || nonFinite(o.Lambda) || nonFinite(o.Overflow):
		return Diverged, ReasonNonFiniteState
	}

	h, reason := Healthy, ReasonNone
	if m.normN >= minHistory {
		if med := m.median(); med > 0 && o.GradNorm > explodeFactor*med {
			h, reason = Degrading, ReasonGradExplosion
		}
	}
	if h == Healthy && m.oscillating() {
		h, reason = Degrading, ReasonOscillation
	}

	if h == Healthy {
		m.streak = 0
		m.pushNorm(o.GradNorm)
	} else {
		m.streak++
		if m.streak >= degradeStreak {
			return Diverged, reason
		}
	}
	m.pushOv(o.Overflow)
	return h, reason
}

// Reset clears the trailing windows; called after a rollback so stale
// pre-fault history does not re-trigger on the restored state.
func (m *Monitor) Reset() {
	m.normN, m.normIdx = 0, 0
	m.ovN, m.ovIdx = 0, 0
	m.streak = 0
}

//dtgp:hotpath
func (m *Monitor) pushNorm(x float64) {
	m.normWin[m.normIdx] = x
	m.normIdx = (m.normIdx + 1) % len(m.normWin)
	if m.normN < len(m.normWin) {
		m.normN++
	}
}

//dtgp:hotpath
func (m *Monitor) pushOv(x float64) {
	m.ovWin[m.ovIdx] = x
	m.ovIdx = (m.ovIdx + 1) % len(m.ovWin)
	if m.ovN < len(m.ovWin) {
		m.ovN++
	}
}

// median of the trailing norm window: copy into owned scratch, insertion
// sort (the window is ≤ a few dozen elements), pick the middle.
//
//dtgp:hotpath
func (m *Monitor) median() float64 {
	n := m.normN
	s := m.normSorted[:n]
	copy(s, m.normWin[:n])
	for i := 1; i < n; i++ {
		x := s[i]
		j := i - 1
		for j >= 0 && s[j] > x {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = x
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

// oscillating detects sustained overflow ping-pong: with the window full,
// (nearly) every consecutive overflow delta larger than oscDelta must flip
// direction. The optimizer's own momentum restarts tolerate isolated
// regressions; this only fires when the whole window alternates.
//
//dtgp:hotpath
func (m *Monitor) oscillating() bool {
	n := m.ovN
	if n < len(m.ovWin) {
		return false
	}
	// Walk the ring oldest→newest.
	flips, prevDelta := 0, 0.0
	havePrev := false
	for k := 1; k < n; k++ {
		a := m.ovWin[(m.ovIdx+k-1)%n]
		b := m.ovWin[(m.ovIdx+k)%n]
		d := b - a
		if math.Abs(d) <= oscDelta {
			continue
		}
		if havePrev && d*prevDelta < 0 {
			flips++
		}
		prevDelta, havePrev = d, true
	}
	return flips >= n-3
}
