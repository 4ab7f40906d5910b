package place

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/guard"
	"dtgp/internal/netlist"
	"dtgp/internal/parallel"
	"dtgp/internal/sdc"
)

// faultEngine builds an engine directly (bypassing Run) so tests can attach
// a fault hook to the optimizer loop.
func faultEngine(t *testing.T, cells int, opts Options) (*engine, *netlist.Design) {
	t.Helper()
	d, con, err := gen.Generate(gen.DefaultParams("p", cells, 11))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	var c *sdc.Constraints
	if opts.Mode != ModeWirelength {
		c = con
	}
	e, err := newEngine(d, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, d
}

func finiteDesign(t *testing.T, d *netlist.Design) {
	t.Helper()
	for ci := range d.Cells {
		p := d.Cells[ci].Pos
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			t.Fatalf("cell %d has non-finite position (%v, %v)", ci, p.X, p.Y)
		}
	}
}

func TestNaNPoisonRollsBack(t *testing.T) {
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 120
	e, d := faultEngine(t, 300, opts)
	e.faultHook = func(iter int, g []float64) {
		if iter == 40 {
			g[0] = math.NaN()
		}
	}
	res := &Result{Mode: opts.Mode}
	if err := e.optimize(res); err != nil {
		t.Fatalf("supervised run errored instead of recovering: %v", err)
	}
	rep := res.Recovery
	if rep == nil || !rep.Enabled {
		t.Fatal("missing recovery report")
	}
	if rep.Rollbacks == 0 {
		t.Fatal("NaN poisoning did not trigger a rollback")
	}
	if rep.Surrendered {
		t.Error("one-shot fault should not exhaust the retry budget")
	}
	finiteDesign(t, d)
}

func TestKernelPanicRollsBackWithDiagnostic(t *testing.T) {
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 80
	e, d := faultEngine(t, 300, opts)
	// A dedicated multi-lane pool so the fault genuinely crosses a worker
	// boundary even on single-CPU hosts (the default pool degrades to
	// inline serial there and would propagate the panic raw).
	pool := parallel.NewPool(4)
	defer pool.Close()
	e.faultHook = func(iter int, g []float64) {
		if iter == 30 {
			pool.ForCost(1<<16, 8, func(i int) {
				if i == 1234 {
					panic("injected kernel fault")
				}
			})
		}
	}
	res := &Result{Mode: opts.Mode}
	if err := e.optimize(res); err != nil {
		t.Fatalf("supervised run errored instead of recovering: %v", err)
	}
	rep := res.Recovery
	if rep == nil || rep.Rollbacks == 0 {
		t.Fatal("kernel panic did not trigger a rollback")
	}
	var inc *guard.Incident
	for i := range rep.Incidents {
		if rep.Incidents[i].Reason == guard.ReasonKernelPanic {
			inc = &rep.Incidents[i]
			break
		}
	}
	if inc == nil {
		t.Fatal("no kernel-panic incident recorded")
	}
	if !strings.Contains(inc.Detail, "injected kernel fault") {
		t.Errorf("incident detail missing panic value: %q", inc.Detail)
	}
	if !strings.Contains(inc.Detail, "serial replay") {
		t.Errorf("incident detail missing serial diagnostic: %q", inc.Detail)
	}
	// The pool must remain usable after the isolated panic.
	sum := 0
	done := make([]int, 64)
	pool.ForCost(len(done), 1<<12, func(i int) { done[i] = 1 })
	for _, v := range done {
		sum += v
	}
	if sum != len(done) {
		t.Fatalf("pool unusable after panic: %d/%d tasks ran", sum, len(done))
	}
	finiteDesign(t, d)
}

func TestPersistentFaultSurrendersGracefully(t *testing.T) {
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 200
	e, d := faultEngine(t, 300, opts)
	hp0 := d.HPWL()
	e.faultHook = func(iter int, g []float64) {
		if iter >= 50 {
			g[0] = math.Inf(1)
		}
	}
	res := &Result{Mode: opts.Mode}
	if err := e.optimize(res); err != nil {
		t.Fatalf("supervised run errored instead of degrading gracefully: %v", err)
	}
	rep := res.Recovery
	if rep == nil || !rep.Surrendered {
		t.Fatal("persistent fault should exhaust the retry budget and surrender")
	}
	if rep.Rollbacks == 0 {
		t.Error("expected at least one rollback before surrendering")
	}
	finiteDesign(t, d)
	// The surrendered solution is the best pre-fault iterate: HPWL must be
	// no worse than the unoptimized starting point (50 healthy iterations
	// improve it substantially before the fault hits).
	if hp := d.HPWL(); hp >= hp0 {
		t.Errorf("surrendered HPWL %v is no better than initial %v", hp, hp0)
	}
}

func TestUnsupervisedKernelPanicReturnsError(t *testing.T) {
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 60
	opts.Guard = false
	e, _ := faultEngine(t, 300, opts)
	pool := parallel.NewPool(4)
	defer pool.Close()
	e.faultHook = func(iter int, g []float64) {
		if iter == 20 {
			pool.ForCost(1<<16, 8, func(i int) {
				if i == 99 {
					panic("unsupervised fault")
				}
			})
		}
	}
	res := &Result{Mode: opts.Mode}
	err := e.optimize(res)
	if err == nil {
		t.Fatal("unsupervised run should surface the kernel fault as an error")
	}
	var kp *parallel.KernelPanicError
	if !errors.As(err, &kp) {
		t.Fatalf("error does not unwrap to KernelPanicError: %v", err)
	}
	if res.Recovery != nil {
		t.Error("disabled supervisor must not attach a recovery report")
	}
}

// TestSupervisionBitIdentity verifies the supervisor is strictly
// observational on a healthy run: positions with supervision on and off
// must match bit for bit.
func TestSupervisionBitIdentity(t *testing.T) {
	run := func(enabled bool) []float64 {
		d, con, err := gen.Generate(gen.DefaultParams("p", 400, 17))
		if err != nil {
			t.Fatal(err)
		}
		opts := quickOpts(ModeDiffTiming)
		opts.MaxIters = 150
		opts.SkipLegalize = true
		opts.Guard = enabled
		if _, err := Run(d, con, opts); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 0, 2*len(d.Cells))
		for ci := range d.Cells {
			out = append(out, d.Cells[ci].Pos.X, d.Cells[ci].Pos.Y)
		}
		return out
	}
	on, off := run(true), run(false)
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("supervision perturbed the trajectory at coord %d: %v vs %v",
				i, on[i], off[i])
		}
	}
}

// TestObserveAllocFree pins the per-iteration supervision overhead (health
// scans + monitor update + checkpointing into preallocated slots) at zero
// allocations.
func TestObserveAllocFree(t *testing.T) {
	opts := quickOpts(ModeWirelength)
	e, _ := faultEngine(t, 200, opts)
	st := e.newOptState()
	res := &Result{Mode: opts.Mode}
	for i := 0; i < 3; i++ {
		if err := e.step(st, i, res, true); err != nil {
			t.Fatal(err)
		}
	}
	mon := guard.NewMonitor()
	ring := guard.NewRing(ringSize, len(st.u), len(e.d.Nets))
	iter := 0
	if n := testing.AllocsPerRun(200, func() {
		e.observe(mon, st, iter)
		iter++
	}); n != 0 {
		t.Fatalf("observe allocates %v per iteration; want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		e.checkpoint(ring, st, iter)
	}); n != 0 {
		t.Fatalf("checkpoint allocates %v per snapshot; want 0", n)
	}
}

func TestRecoveryReportInResult(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("p", 300, 19))
	if err != nil {
		t.Fatal(err)
	}
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 100
	res, err := Run(d, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || !res.Recovery.Enabled {
		t.Fatal("default options should attach an enabled recovery report")
	}
	if !res.Recovery.Healthy() {
		t.Errorf("clean run reported unhealthy: %s", res.Recovery)
	}
}
