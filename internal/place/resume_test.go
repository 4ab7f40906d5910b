package place

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dtgp/internal/chaos"
	"dtgp/internal/gen"
	"dtgp/internal/guard"
)

// durableRun regenerates the identical benchmark (Run mutates the design in
// place), runs it with opts, and returns the final positions (bit-exact) and
// the result.
func durableRun(t *testing.T, cells int, genSeed int64, opts Options) ([]float64, *Result) {
	t.Helper()
	d, con, err := gen.Generate(gen.DefaultParams("p", cells, genSeed))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 0, 2*len(d.Cells))
	for ci := range d.Cells {
		out = append(out, d.Cells[ci].Pos.X, d.Cells[ci].Pos.Y)
	}
	return out, res
}

// copyCheckpointsUpTo populates dst with the committed checkpoints of src at
// iterations <= k — the on-disk state a run killed just after committing
// iteration k leaves behind.
func copyCheckpointsUpTo(t *testing.T, src, dst string, k int) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		iter, ok := parseCkptName(ent.Name())
		if !ok || iter > k {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// parseCkptName duplicates the store's name parsing for test-side filtering
// (the store's own parser is package-private to guard).
func parseCkptName(name string) (int, bool) {
	const prefix, suffix = "ckpt-", ".ckpt"
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	iter := 0
	for _, c := range name[len(prefix) : len(name)-len(suffix)] {
		if c < '0' || c > '9' {
			return 0, false
		}
		iter = iter*10 + int(c-'0')
	}
	return iter, true
}

// TestKillResumeBitIdentity is the PR's headline acceptance test: killing a
// durable run after any committed checkpoint k and resuming from disk must
// reproduce the uninterrupted run bit-for-bit — final positions, iteration
// count, and final exact WNS/TNS. Runs the difftiming flow so the resumed
// timer's re-anchored incremental state is part of what must match.
func TestKillResumeBitIdentity(t *testing.T) {
	const cells, genSeed = 300, 17
	opts := quickOpts(ModeDiffTiming)
	opts.MaxIters = 130
	opts.SkipLegalize = true
	opts.CheckpointKeep = 0 // keep every checkpoint: each one is a kill point
	refDir := t.TempDir()
	opts.CheckpointDir = refDir

	wantPos, wantRes := durableRun(t, cells, genSeed, opts)
	if wantRes.Recovery == nil || wantRes.Recovery.DurableIter < 0 {
		t.Fatal("reference run committed no durable checkpoint")
	}

	store, err := guard.NewStore(guard.OSFS, refDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	iters, err := store.Iters()
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) < 3 {
		t.Fatalf("reference run committed only %d checkpoints", len(iters))
	}

	// Sample kill points across the run: the first checkpoint, one
	// mid-trajectory, and the last (which for this configuration lands in
	// the timing-active phase).
	kills := []int{iters[0], iters[len(iters)/2], iters[len(iters)-1]}
	for _, k := range kills {
		resumeDir := t.TempDir()
		copyCheckpointsUpTo(t, refDir, resumeDir, k)
		rstore, err := guard.NewStore(guard.OSFS, resumeDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp, _, err := rstore.LoadLatest()
		if err != nil {
			t.Fatalf("kill at %d: %v", k, err)
		}
		if cp.Iter != k {
			t.Fatalf("kill at %d: latest committed checkpoint is iter %d", k, cp.Iter)
		}

		ropts := opts
		ropts.CheckpointDir = resumeDir
		ropts.Resume = cp
		gotPos, gotRes := durableRun(t, cells, genSeed, ropts)

		if gotRes.Recovery == nil || gotRes.Recovery.ResumedFrom != k {
			t.Fatalf("kill at %d: report does not record the resume point: %+v", k, gotRes.Recovery)
		}
		if gotRes.Iterations != wantRes.Iterations {
			t.Fatalf("kill at %d: resumed run took %d iterations, uninterrupted took %d",
				k, gotRes.Iterations, wantRes.Iterations)
		}
		if math.Float64bits(gotRes.WNS) != math.Float64bits(wantRes.WNS) ||
			math.Float64bits(gotRes.TNS) != math.Float64bits(wantRes.TNS) {
			t.Fatalf("kill at %d: final timing differs: WNS %v/%v TNS %v/%v",
				k, gotRes.WNS, wantRes.WNS, gotRes.TNS, wantRes.TNS)
		}
		for i := range wantPos {
			if math.Float64bits(gotPos[i]) != math.Float64bits(wantPos[i]) {
				t.Fatalf("kill at %d: position coord %d differs: %v vs %v",
					k, i, gotPos[i], wantPos[i])
			}
		}
	}
}

// TestDeadlinePersistsFinalCheckpoint: an exceeded -deadline must stop the
// run cooperatively, persist a final durable checkpoint, and surrender the
// best finite iterate — not error, not run to MaxIters.
func TestDeadlineSurrendersWithFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 1 << 20 // the deadline, not the budget, must end the run
	opts.StopOverflow = 0   // and convergence must not end it first,
	// nor the plateau stop: a 300-cell run reaches it at iteration 577,
	// 125–180 ms in, around the deadline, so the design has 2000 cells.
	opts.SkipLegalize = true
	opts.CheckpointDir = dir
	opts.Deadline = time.Now().Add(150 * time.Millisecond)

	_, res := durableRun(t, 2000, 5, opts)
	rep := res.Recovery
	if rep == nil {
		t.Fatal("no recovery report")
	}
	if !rep.DeadlineExceeded || !rep.Surrendered {
		t.Fatalf("deadline did not surrender: exceeded=%v surrendered=%v",
			rep.DeadlineExceeded, rep.Surrendered)
	}
	if res.Iterations >= opts.MaxIters {
		t.Fatal("run ignored the deadline and exhausted MaxIters")
	}
	if rep.DurableIter < 0 {
		t.Fatal("no final checkpoint persisted on deadline")
	}
	var sawDeadline bool
	for _, inc := range rep.Incidents {
		if inc.Reason == guard.ReasonDeadline {
			sawDeadline = true
		}
	}
	if !sawDeadline {
		t.Fatalf("no deadline incident recorded: %+v", rep.Incidents)
	}
	// The persisted checkpoint is loadable and is the final one.
	store, err := guard.NewStore(guard.OSFS, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Iter != rep.DurableIter {
		t.Fatalf("latest durable checkpoint is iter %d, report says %d", cp.Iter, rep.DurableIter)
	}
}

// TestCancelFlagHaltsRun: the external cooperative stop flag has deadline
// semantics — here set before the run, so it halts at the first iteration
// boundary with the initial iterate surrendered intact.
func TestCancelFlagHaltsRun(t *testing.T) {
	var cancel atomic.Bool
	cancel.Store(true)
	opts := quickOpts(ModeWirelength)
	opts.SkipLegalize = true
	opts.Cancel = &cancel

	d, con, err := gen.Generate(gen.DefaultParams("p", 300, 6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, con, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Recovery
	if rep == nil || !rep.Surrendered || !rep.DeadlineExceeded {
		t.Fatalf("pre-set cancel flag did not halt the run: %+v", rep)
	}
	if res.Iterations != 0 {
		t.Fatalf("canceled run still took %d iterations", res.Iterations)
	}
	finiteDesign(t, d)
}

// TestCancelMidIterationViaKernelBarrier: a stop flag raised while a step is
// in flight is observed at the next parallel-kernel barrier; the resulting
// ErrCanceled panic must route to the graceful halt (with a final durable
// checkpoint), not to the rollback/fault path.
func TestCancelMidIterationViaKernelBarrier(t *testing.T) {
	var cancel atomic.Bool
	dir := t.TempDir()
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 200
	opts.Cancel = &cancel
	opts.CheckpointDir = dir
	e, d := faultEngine(t, 300, opts)
	const stopIter = 35
	e.faultHook = func(iter int, g []float64) {
		if iter == stopIter {
			cancel.Store(true) // raised mid-step, after the gradient kernels
		}
	}
	res := &Result{Mode: opts.Mode}
	if err := e.optimize(res); err != nil {
		t.Fatalf("canceled run errored: %v", err)
	}
	rep := res.Recovery
	if rep == nil || !rep.Surrendered || !rep.DeadlineExceeded {
		t.Fatalf("mid-iteration cancel did not halt gracefully: %+v", rep)
	}
	if rep.Rollbacks != 0 {
		t.Fatalf("cancellation was misrouted to the rollback path (%d rollbacks)", rep.Rollbacks)
	}
	if res.Iterations > stopIter+2 {
		t.Fatalf("run continued to iter %d after the flag was raised at %d",
			res.Iterations, stopIter)
	}
	if rep.DurableIter < 0 {
		t.Fatal("no final checkpoint persisted on cancellation")
	}
	finiteDesign(t, d)
}

// TestResumeMismatchRejected: a checkpoint from a different run (seed or
// design shape) must be rejected with guard.ErrMismatch, never applied.
func TestResumeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 15
	opts.SkipLegalize = true
	opts.CheckpointDir = dir
	durableRun(t, 300, 7, opts)

	store, err := guard.NewStore(guard.OSFS, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := store.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}

	// Same design, different optimizer seed.
	ropts := opts
	ropts.CheckpointDir = ""
	ropts.Resume = cp
	ropts.Seed = 999
	d, con, err := gen.Generate(gen.DefaultParams("p", 300, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, con, ropts); !errors.Is(err, guard.ErrMismatch) {
		t.Fatalf("seed mismatch: got %v, want guard.ErrMismatch", err)
	}

	// Different design shape.
	ropts.Seed = opts.Seed
	d2, con2, err := gen.Generate(gen.DefaultParams("p", 350, 7))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d2, con2, ropts); !errors.Is(err, guard.ErrMismatch) {
		t.Fatalf("shape mismatch: got %v, want guard.ErrMismatch", err)
	}
}

// TestCheckpointIOFaultsDoNotPerturbTrajectory: a durable run on a failing
// disk must stay bit-identical to one whose saves all succeed — checkpoint
// I/O failures cost durability (recorded as incidents), never correctness.
func TestCheckpointIOFaultsDoNotPerturbTrajectory(t *testing.T) {
	const cells, genSeed = 300, 9
	opts := quickOpts(ModeWirelength)
	opts.MaxIters = 120
	opts.SkipLegalize = true

	healthy := opts
	healthy.CheckpointDir = t.TempDir()
	wantPos, _ := durableRun(t, cells, genSeed, healthy)

	faulty := opts
	faulty.CheckpointDir = t.TempDir()
	ffs := chaos.NewFaultFS(guard.OSFS, 99, 0.3)
	faulty.CheckpointFS = ffs
	gotPos, res := durableRun(t, cells, genSeed, faulty)

	if ffs.Injected == 0 {
		t.Fatal("fault FS injected nothing — the test exercised no failure")
	}
	var ioIncidents int
	for _, inc := range res.Recovery.Incidents {
		if inc.Reason == guard.ReasonCheckpointIO {
			ioIncidents++
		}
	}
	if ioIncidents == 0 {
		t.Fatal("injected checkpoint I/O failures were not recorded as incidents")
	}
	if res.Recovery.Surrendered {
		t.Fatal("checkpoint I/O failures must not surrender a healthy run")
	}
	for i := range wantPos {
		if math.Float64bits(gotPos[i]) != math.Float64bits(wantPos[i]) {
			t.Fatalf("failing disk perturbed the trajectory at coord %d: %v vs %v",
				i, gotPos[i], wantPos[i])
		}
	}
}
