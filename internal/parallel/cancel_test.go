package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
)

// expectCanceled runs submit and asserts it panics with ErrCanceled before
// executing any kernel work.
func expectCanceled(t *testing.T, name string, submit func(), ran *atomic.Int64) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic with cancel flag set", name)
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: panicked with %v, want ErrCanceled", name, r)
		}
		if ran.Load() != 0 {
			t.Fatalf("%s: %d kernel elements ran after cancellation", name, ran.Load())
		}
	}()
	submit()
}

func TestCancelFlagStopsEveryKernel(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var flag atomic.Bool
	p.SetCancelFlag(&flag)
	flag.Store(true)

	var ran atomic.Int64
	count := func(i int) { ran.Add(1) }
	countWorker := func(w, lo, hi int) { ran.Add(int64(hi - lo)) }
	const n = 1 << 16

	expectCanceled(t, "ForCost", func() { p.ForCost(n, CostHeavy, count) }, &ran)
	expectCanceled(t, "ForWorker", func() { p.ForWorker(n, CostHeavy, countWorker) }, &ran)
	expectCanceled(t, "ForGuided", func() { p.ForGuided(n, 64, CostHeavy, countWorker) }, &ran)
	expectCanceled(t, "Run", func() { p.Run(func() { ran.Add(1) }, func() { ran.Add(1) }) }, &ran)
	// The serial-fallback path (tiny n) must check the flag too: cancellation
	// is a submission-boundary property, not a parallel-dispatch property.
	expectCanceled(t, "ForCost-serial", func() { p.ForCost(3, CostTrivial, count) }, &ran)
}

func TestCancelFlagClearAndNil(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var flag atomic.Bool
	var ran atomic.Int64

	// Registered but unset: kernels run normally.
	p.SetCancelFlag(&flag)
	p.ForCost(100, CostTrivial, func(i int) { ran.Add(1) })
	if ran.Load() != 100 {
		t.Fatalf("unset flag blocked the kernel: ran %d/100", ran.Load())
	}

	// Set, then deregistered: the pool must be handed back uncancelable
	// (the post-loop legalization contract).
	flag.Store(true)
	p.SetCancelFlag(nil)
	ran.Store(0)
	p.ForCost(100, CostTrivial, func(i int) { ran.Add(1) })
	if ran.Load() != 100 {
		t.Fatalf("deregistered flag still canceled the kernel: ran %d/100", ran.Load())
	}
}

// TestCancelLeavesPoolReusable: after an ErrCanceled panic the pool must be
// idle at a barrier and fully reusable once the flag clears.
func TestCancelLeavesPoolReusable(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var flag atomic.Bool
	p.SetCancelFlag(&flag)

	for round := 0; round < 3; round++ {
		flag.Store(true)
		var ran atomic.Int64
		expectCanceled(t, "round", func() { p.ForCost(1<<16, CostHeavy, func(i int) { ran.Add(1) }) }, &ran)
		flag.Store(false)
		p.ForCost(1<<16, CostHeavy, func(i int) { ran.Add(1) })
		if ran.Load() != 1<<16 {
			t.Fatalf("round %d: pool not reusable after cancel: ran %d", round, ran.Load())
		}
	}
}

// TestCancelInsideNestedKernel: a cancel flag set while a kernel is already
// in flight is observed at the next submission from within that kernel (the
// nested submission runs on the serial-fallback path); the worker's panic is
// captured and re-raised as a *KernelPanicError whose Unwrap chain still
// satisfies errors.Is(err, ErrCanceled) — exactly what the supervisor's
// iteration-boundary recover keys on.
func TestCancelInsideNestedKernel(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var flag atomic.Bool
	p.SetCancelFlag(&flag)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic from nested cancellation")
		}
		kp, ok := r.(*KernelPanicError)
		if !ok {
			t.Fatalf("panicked with %T %v, want *KernelPanicError", r, r)
		}
		if !errors.Is(kp, ErrCanceled) {
			t.Fatalf("KernelPanicError does not unwrap to ErrCanceled: %v", kp)
		}
	}()
	p.ForWorker(1<<16, CostDefault, func(w, lo, hi int) {
		flag.Store(true)
		// Nested submission: serial fallback, but still cancellation-checked.
		p.ForCost(hi-lo, CostTrivial, func(i int) {})
	})
}

// TestCheckCanceledZeroAlloc: the barrier-boundary check is on the kernel
// hot path; it must not allocate whether or not a flag is registered.
func TestCheckCanceledZeroAlloc(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if n := testing.AllocsPerRun(1000, p.checkCanceled); n != 0 {
		t.Fatalf("checkCanceled allocates %.1f/op with no flag", n)
	}
	var flag atomic.Bool
	p.SetCancelFlag(&flag)
	if n := testing.AllocsPerRun(1000, p.checkCanceled); n != 0 {
		t.Fatalf("checkCanceled allocates %.1f/op with a flag registered", n)
	}
}
