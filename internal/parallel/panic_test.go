package parallel

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// catchKernelPanic runs fn and returns the *KernelPanicError it panics
// with, or nil if it returns normally.
func catchKernelPanic(t *testing.T, fn func()) (pe *KernelPanicError) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		var ok bool
		pe, ok = r.(*KernelPanicError)
		if !ok {
			t.Fatalf("panic value %T (%v), want *KernelPanicError", r, r)
		}
	}()
	fn()
	return nil
}

// TestKernelPanicIsolated: a panic inside a For body surfaces on the
// submitter as a typed *KernelPanicError carrying value and stack, and the
// pool remains fully usable afterwards.
func TestKernelPanicIsolated(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	n := 1 << 12
	pe := catchKernelPanic(t, func() {
		p.ForCost(n, CostHeavy, func(i int) {
			if i == n/2 {
				panic("poisoned element")
			}
		})
	})
	if pe == nil {
		t.Fatal("kernel panic was swallowed")
	}
	if pe.Value != "poisoned element" {
		t.Errorf("panic value = %v, want poisoned element", pe.Value)
	}
	if !strings.Contains(pe.Error(), "poisoned element") {
		t.Errorf("Error() = %q does not name the panic value", pe.Error())
	}
	if len(pe.Stack) == 0 {
		t.Error("captured stack is empty")
	}

	// The pool must survive: the next dispatches run to completion.
	for round := 0; round < 3; round++ {
		var cnt atomic.Int64
		p.ForCost(n, CostHeavy, func(i int) { cnt.Add(1) })
		if got := cnt.Load(); got != int64(n) {
			t.Fatalf("post-panic dispatch round %d ran %d/%d elements", round, got, n)
		}
	}
}

// TestKernelPanicErrorUnwrap: error panic values unwrap for errors.Is.
func TestKernelPanicErrorUnwrap(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	sentinel := errors.New("sentinel failure")
	pe := catchKernelPanic(t, func() {
		p.ForCost(1<<12, CostHeavy, func(i int) {
			if i == 7 {
				panic(sentinel)
			}
		})
	})
	if pe == nil {
		t.Fatal("kernel panic was swallowed")
	}
	if !errors.Is(pe, sentinel) {
		t.Errorf("errors.Is(pe, sentinel) = false, want true")
	}
}

// TestKernelPanicAllShapes: every dispatch shape isolates panics and leaves
// the pool reusable.
func TestKernelPanicAllShapes(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	n := 1 << 12
	shapes := []struct {
		name string
		fn   func()
	}{
		{"ForCost", func() {
			p.ForCost(n, CostHeavy, func(i int) {
				if i == 3 {
					panic("idx")
				}
			})
		}},
		{"ForWorker", func() {
			p.ForWorker(n, CostHeavy, func(w, lo, hi int) {
				if lo == 0 {
					panic("worker")
				}
			})
		}},
		{"ForGuided", func() {
			p.ForGuided(n, 16, CostHeavy, func(w, lo, hi int) {
				if lo == 0 {
					panic("guided")
				}
			})
		}},
		{"Run", func() {
			p.Run(func() {}, func() { panic("task") }, func() {}, func() {})
		}},
	}
	for _, s := range shapes {
		if pe := catchKernelPanic(t, s.fn); pe == nil {
			t.Errorf("%s: kernel panic was swallowed", s.name)
		}
		var cnt atomic.Int64
		p.ForCost(n, CostHeavy, func(i int) { cnt.Add(1) })
		if cnt.Load() != int64(n) {
			t.Fatalf("%s: pool unusable after panic", s.name)
		}
	}
}

// TestForceSerial: with serial forced, kernels run inline (panics propagate
// raw, in deterministic index order) and dispatch goes back to parallel
// after release.
func TestForceSerial(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.ForceSerial(true)
	first := -1
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("serial replay did not panic")
			} else if _, typed := r.(*KernelPanicError); typed {
				t.Fatal("serial path must propagate the raw panic, got KernelPanicError")
			}
		}()
		p.ForCost(1<<12, CostHeavy, func(i int) {
			if i%97 == 3 {
				first = i
				panic("raw")
			}
		})
	}()
	if first != 3 {
		t.Errorf("serial replay hit element %d first, want 3 (index order)", first)
	}
	p.ForceSerial(false)
	var cnt atomic.Int64
	p.ForCost(1<<12, CostHeavy, func(i int) { cnt.Add(1) })
	if cnt.Load() != 1<<12 {
		t.Fatal("pool did not resume after ForceSerial(false)")
	}
}
