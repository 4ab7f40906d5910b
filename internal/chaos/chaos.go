// Package chaos is the seeded fault-injection harness of the robustness
// test matrix. It produces *deterministic* fault schedules — which
// iteration faults, with what kind, at which target index — from a single
// seed, so every chaos test is reproducible bit-for-bit: the same seed
// always yields the same kill points, the same poisoned gradient entries,
// and the same injected I/O failures, under -race and across machines.
//
// The package deliberately knows nothing about the placement engine: it
// hands out schedules (Injector) and a fault-injecting filesystem (FaultFS
// in fs.go) built on guard.FS; the engine-side tests wire the schedule into
// the engine's fault hook. Determinism comes from math/rand with an
// explicit source — never the global RNG, never wall-clock state.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
)

// Kind is one fault family of the chaos matrix.
type Kind uint8

// Fault kinds. Each corresponds to a real failure mode of a long placement
// run: a panicking kernel (bad LUT index, sliced scratch), numerical
// poison from an out-of-range extrapolation, a failing checkpoint disk,
// and a stalled iteration (CPU starvation, page-cache thrash).
const (
	KindNone Kind = iota
	// KindPanic: a parallel kernel panics mid-iteration.
	KindPanic
	// KindNaN: one gradient entry is overwritten with NaN.
	KindNaN
	// KindInf: one gradient entry is overwritten with +Inf.
	KindInf
	// KindIOErr: checkpoint I/O fails (driven through FaultFS).
	KindIOErr
	// KindStall: the iteration is artificially delayed.
	KindStall
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPanic:
		return "panic"
	case KindNaN:
		return "nan"
	case KindInf:
		return "inf"
	case KindIOErr:
		return "ioerr"
	case KindStall:
		return "stall"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Fault is one scheduled injection.
type Fault struct {
	// Iter the fault fires at.
	Iter int
	// Kind of fault.
	Kind Kind
	// Index is a deterministic target ordinal for corruption faults;
	// consumers reduce it modulo their vector length.
	Index int
}

// Injector is a precomputed, seed-deterministic fault schedule over an
// iteration range.
type Injector struct {
	seed   int64
	faults map[int]Fault
}

// NewInjector derives a fault schedule from seed: each iteration in
// [0, maxIter) faults with probability rate, drawing its kind uniformly
// from kinds and its target index from the same stream. The schedule is a
// pure function of the arguments.
//
//dtgp:allow(unreached) place's TestChaosMatrixRecoversOrSurrenders and TestChaosMatrixDeterministic
func NewInjector(seed int64, maxIter int, rate float64, kinds ...Kind) *Injector {
	rng := rand.New(rand.NewSource(seed))
	in := &Injector{seed: seed, faults: make(map[int]Fault)}
	if len(kinds) == 0 || rate <= 0 {
		return in
	}
	for iter := 0; iter < maxIter; iter++ {
		if rng.Float64() >= rate {
			continue
		}
		in.faults[iter] = Fault{
			Iter:  iter,
			Kind:  kinds[rng.Intn(len(kinds))],
			Index: rng.Intn(1 << 20),
		}
	}
	return in
}

// At returns the fault scheduled for iter, if any.
//
//dtgp:allow(unreached) place's TestChaosMatrixRecoversOrSurrenders and TestChaosMatrixDeterministic
func (in *Injector) At(iter int) (Fault, bool) {
	f, ok := in.faults[iter]
	return f, ok
}

// Faults returns the full schedule in iteration order.
//
//dtgp:allow(unreached) place's TestChaosMatrixRecoversOrSurrenders and TestChaosMatrixDeterministic
func (in *Injector) Faults() []Fault {
	out := make([]Fault, 0, len(in.faults))
	for _, f := range in.faults {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Iter < out[j].Iter })
	return out
}

// Seed returns the schedule's seed (for failure messages).
func (in *Injector) Seed() int64 { return in.seed }
