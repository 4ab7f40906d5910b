package guard

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dtgp/internal/parallel"
)

func TestScanVec(t *testing.T) {
	v := []float64{1, -2, 3}
	nf, l1 := ScanVec(v)
	if nf != 0 || l1 != 6 {
		t.Errorf("ScanVec = (%d, %v), want (0, 6)", nf, l1)
	}
	v = []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), -1}
	nf, _ = ScanVec(v)
	if nf != 3 {
		t.Errorf("ScanVec nonFinite = %d, want 3", nf)
	}
	if nf, l1 := ScanVec(nil); nf != 0 || l1 != 0 {
		t.Errorf("ScanVec(nil) = (%d, %v), want (0, 0)", nf, l1)
	}
}

func TestMonitorNonFinite(t *testing.T) {
	m := NewMonitor()
	cases := []struct {
		name string
		o    Obs
		want Reason
	}{
		{"pos", Obs{NonFinitePos: 1}, ReasonNonFinitePos},
		{"grad", Obs{NonFiniteGrad: 2}, ReasonNonFiniteGrad},
		{"timing", Obs{NonFiniteTiming: 1}, ReasonNonFiniteTiming},
		{"alpha", Obs{Alpha: math.NaN()}, ReasonNonFiniteState},
		{"lambda", Obs{Lambda: math.Inf(1)}, ReasonNonFiniteState},
		{"overflow", Obs{Overflow: math.NaN()}, ReasonNonFiniteState},
	}
	for _, c := range cases {
		h, r := m.Observe(c.o)
		if h != Diverged || r != c.want {
			t.Errorf("%s: Observe = (%v, %v), want (diverged, %v)", c.name, h, r, c.want)
		}
	}
}

func TestMonitorExplosion(t *testing.T) {
	m := NewMonitor()
	// Feed a stable baseline…
	for i := 0; i < 16; i++ {
		if h, _ := m.Observe(Obs{Iter: i, GradNorm: 100, Overflow: 1 - 0.01*float64(i)}); h != Healthy {
			t.Fatalf("baseline iter %d not healthy: %v", i, h)
		}
	}
	// …then an exploding norm: degrading, escalating to diverged after the
	// streak.
	var h Health
	var r Reason
	for i := 0; i < degradeStreak; i++ {
		h, r = m.Observe(Obs{Iter: 16 + i, GradNorm: 100 * explodeFactor * 2, Overflow: 0.8})
		if i < degradeStreak-1 && h != Degrading {
			t.Fatalf("explosion sample %d: health %v, want degrading", i, h)
		}
	}
	if h != Diverged || r != ReasonGradExplosion {
		t.Errorf("sustained explosion = (%v, %v), want (diverged, explosion)", h, r)
	}
	// A single outlier must not diverge a fresh monitor, and recovery
	// resets the streak.
	m.Reset()
	for i := 0; i < 16; i++ {
		m.Observe(Obs{GradNorm: 100, Overflow: 0.9})
	}
	if h, _ := m.Observe(Obs{GradNorm: 1e6, Overflow: 0.9}); h != Degrading {
		t.Errorf("single outlier = %v, want degrading", h)
	}
	if h, _ := m.Observe(Obs{GradNorm: 100, Overflow: 0.9}); h != Healthy {
		t.Errorf("after recovery = %v, want healthy", h)
	}
}

func TestMonitorOscillation(t *testing.T) {
	m := NewMonitor()
	// Overflow ping-ponging by ±0.2 every iteration: degrading within the
	// streak after the window fills.
	sawDegrading := false
	for i := 0; i < oscWindow+degradeStreak+2; i++ {
		ov := 0.5
		if i%2 == 0 {
			ov = 0.7
		}
		h, r := m.Observe(Obs{Iter: i, GradNorm: 100, Overflow: ov})
		if h != Healthy {
			sawDegrading = true
			if r != ReasonOscillation {
				t.Fatalf("iter %d: reason %v, want oscillation", i, r)
			}
		}
	}
	if !sawDegrading {
		t.Error("sustained overflow ping-pong never flagged")
	}
	// Monotone decrease never trips it.
	m.Reset()
	for i := 0; i < 3*oscWindow; i++ {
		if h, r := m.Observe(Obs{Iter: i, GradNorm: 100, Overflow: 1 - 0.02*float64(i)}); h != Healthy {
			t.Fatalf("monotone overflow flagged (%v, %v)", h, r)
		}
	}
}

func TestRingRollbackOrder(t *testing.T) {
	r := NewRing(3, 4, 2)
	if r.Latest() != nil || r.Pop() != nil {
		t.Fatal("empty ring returned a snapshot")
	}
	for i := 1; i <= 5; i++ {
		cp := r.Next()
		cp.Iter = i * 10
		cp.U[0] = float64(i)
		r.Commit()
	}
	if r.Len() != 3 {
		t.Fatalf("ring holds %d snapshots, want 3", r.Len())
	}
	if got := r.Latest().Iter; got != 50 {
		t.Fatalf("latest = %d, want 50", got)
	}
	// Pops walk newest → oldest over the surviving window.
	for _, want := range []int{50, 40, 30} {
		cp := r.Pop()
		if cp == nil || cp.Iter != want {
			t.Fatalf("pop = %v, want iter %d", cp, want)
		}
	}
	if r.Pop() != nil {
		t.Fatal("exhausted ring returned a snapshot")
	}
	// Refilling after exhaustion works.
	cp := r.Next()
	cp.Iter = 99
	r.Commit()
	if r.Latest().Iter != 99 {
		t.Fatal("ring unusable after exhaustion")
	}
}

func TestAsError(t *testing.T) {
	kp := &parallel.KernelPanicError{Value: "boom", Worker: 2}
	if got := AsError(kp); got != kp {
		t.Errorf("AsError did not pass the typed kernel panic through")
	}
	sentinel := errors.New("x")
	if !errors.Is(AsError(sentinel), sentinel) {
		t.Errorf("AsError lost the wrapped error")
	}
	if AsError("plain").Error() == "" {
		t.Errorf("AsError produced empty message for plain value")
	}
}

func TestSerialDiagnostic(t *testing.T) {
	diag := SerialDiagnostic(func() {
		parallel.ForCost(1<<12, parallel.CostHeavy, func(i int) {
			if i == 41 {
				panic("det-fault")
			}
		})
	})
	if !strings.Contains(diag, "det-fault") {
		t.Errorf("diagnostic %q does not carry the panic value", diag)
	}
	if !strings.Contains(diag, "deterministically") {
		t.Errorf("diagnostic %q does not flag deterministic reproduction", diag)
	}
	// The serial toggle must be restored either way.
	diag = SerialDiagnostic(func() {})
	if !strings.Contains(diag, "schedule-dependent") {
		t.Errorf("clean replay diagnostic = %q", diag)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{CheckpointIter: -1}
	if !r.Healthy() || !strings.Contains(r.String(), "healthy") {
		t.Errorf("clean report: Healthy=%v String=%q", r.Healthy(), r.String())
	}
	r.Record(Incident{Iter: 120, Health: Diverged, Reason: ReasonNonFiniteGrad,
		Action: "rollback to iter 110", Detail: "3 non-finite entries"})
	r.Rollbacks++
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"recovered", "iter 120", "non-finite gradient", "rollback to iter 110", "3 non-finite entries"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	var nilRep *Report
	if !nilRep.Healthy() {
		t.Error("nil report not healthy")
	}
}

// TestObserveAllocFree: the steady-state monitor path (scan + observe +
// checkpoint slot bookkeeping) must not allocate.
func TestObserveAllocFree(t *testing.T) {
	m := NewMonitor()
	v := make([]float64, 4096)
	for i := range v {
		v[i] = float64(i%17) - 8
	}
	iter := 0
	if allocs := testing.AllocsPerRun(100, func() {
		nf, l1 := ScanVec(v)
		m.Observe(Obs{Iter: iter, GradNorm: l1, NonFiniteGrad: nf, Alpha: 1, Lambda: 2, Overflow: 0.5})
		iter++
	}); allocs != 0 {
		t.Errorf("monitor observation allocated %v objects/op, want 0", allocs)
	}
	r := NewRing(4, 4096, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		cp := r.Next()
		copy(cp.U, v)
		cp.Iter = iter
		r.Commit()
	}); allocs != 0 {
		t.Errorf("checkpoint save allocated %v objects/op, want 0", allocs)
	}
}
