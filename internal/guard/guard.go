// Package guard is the fault-tolerant run supervisor of the placement
// engine. Analytical placers are feedback loops: a single NaN in a
// gradient, an out-of-range LUT extrapolation, or a panic inside one
// parallel kernel is amplified by momentum and λ scheduling into full
// divergence (cf. DG-RePlAce's divergence detection, Kahng & Wang 2024).
// This package provides the three pieces the engine composes into a
// supervised run:
//
//   - Monitor — a zero-alloc numerical health monitor that scans positions,
//     gradients, λ and the step length every iteration for NaN/Inf,
//     exploding gradient norms (> K × trailing median) and density-overflow
//     oscillation, classifying the run as Healthy / Degrading / Diverged.
//   - Ring — a preallocated checkpoint ring buffer (positions, optimizer
//     state, net weights, RNG seed) the engine rolls back to on divergence,
//     retrying with damping under a bounded retry budget before gracefully
//     surrendering the best-seen finite solution.
//   - Report — the structured incident log a run hands back to callers and
//     the CLI binaries render as a failure report.
//
// The supervisor is strictly observational while the run is healthy: scans
// are read-only and checkpoints are copies, so a clean run is bit-identical
// with supervision enabled or disabled.
package guard

import (
	"fmt"
	"runtime/debug"

	"dtgp/internal/parallel"
)

// Health classifies the numerical state of a supervised run.
type Health uint8

// Health states, ordered by severity.
const (
	// Healthy: all monitored quantities finite and within trend.
	Healthy Health = iota
	// Degrading: finite but trending toward divergence (exploding norms,
	// overflow oscillation). Repeated degrading observations escalate.
	Degrading
	// Diverged: non-finite state or a sustained degradation; the engine
	// must roll back.
	Diverged
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degrading:
		return "degrading"
	case Diverged:
		return "diverged"
	default:
		return fmt.Sprintf("health(%d)", uint8(h))
	}
}

// Reason identifies what tripped a non-healthy classification.
type Reason uint8

// Reasons, in rough detection order.
const (
	ReasonNone Reason = iota
	// ReasonNonFinitePos: NaN/Inf in the position vector.
	ReasonNonFinitePos
	// ReasonNonFiniteGrad: NaN/Inf in the objective gradient.
	ReasonNonFiniteGrad
	// ReasonNonFiniteState: NaN/Inf in λ, the step length, or the overflow.
	ReasonNonFiniteState
	// ReasonNonFiniteTiming: NaN/Inf inside the differentiable timer
	// (arrival times, slews, or timing gradients).
	ReasonNonFiniteTiming
	// ReasonGradExplosion: gradient norm above K × trailing median.
	ReasonGradExplosion
	// ReasonOscillation: density overflow alternating beyond the noise
	// threshold across the whole trailing window.
	ReasonOscillation
	// ReasonKernelPanic: a parallel kernel panicked (recovered and
	// isolated by internal/parallel).
	ReasonKernelPanic
	// ReasonDeadline: the run's wall-clock budget expired (or it was
	// cooperatively canceled) and it surrendered its best iterate after
	// persisting a final checkpoint.
	ReasonDeadline
	// ReasonCheckpointIO: a durable checkpoint save failed. The trajectory
	// is unaffected (the in-memory ring still holds the snapshot); the
	// incident records the lost durability.
	ReasonCheckpointIO
)

func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonNonFinitePos:
		return "non-finite position"
	case ReasonNonFiniteGrad:
		return "non-finite gradient"
	case ReasonNonFiniteState:
		return "non-finite optimizer state"
	case ReasonNonFiniteTiming:
		return "non-finite timing state"
	case ReasonGradExplosion:
		return "gradient norm explosion"
	case ReasonOscillation:
		return "overflow oscillation"
	case ReasonKernelPanic:
		return "kernel panic"
	case ReasonDeadline:
		return "deadline exceeded"
	case ReasonCheckpointIO:
		return "checkpoint I/O failure"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// AsError converts a recovered panic value into an error. A typed
// *parallel.KernelPanicError passes through unchanged so callers can
// inspect the worker stack; any other value is wrapped.
func AsError(r any) error {
	switch v := r.(type) {
	case *parallel.KernelPanicError:
		return v
	case error:
		return fmt.Errorf("guard: recovered panic: %w", v)
	default:
		return fmt.Errorf("guard: recovered panic: %v", v)
	}
}

// SerialDiagnostic re-runs step with the parallel runtime forced serial and
// returns a deterministic diagnostic: the raw panic and the exact stack of
// the faulting element when the fault reproduces, or a note that it is
// schedule-dependent when it does not. The serial toggle is always restored.
func SerialDiagnostic(step func()) (diag string) {
	parallel.ForceSerial(true)
	defer parallel.ForceSerial(false)
	defer func() {
		if r := recover(); r != nil {
			diag = fmt.Sprintf("serial replay reproduced the panic deterministically: %v\n%s",
				r, debug.Stack())
		}
	}()
	step()
	return "serial replay completed without panic (fault is schedule-dependent)"
}
