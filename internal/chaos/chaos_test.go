package chaos

import (
	"errors"
	"reflect"
	"testing"

	"dtgp/internal/guard"
)

// CrashNextWrite arms a one-shot torn-write fault: the next Create returns
// a file that fails after budget bytes, leaving a partial temp file behind.
func (f *FaultFS) CrashNextWrite(budget int) { f.crashBudget = budget }

func TestInjectorDeterministic(t *testing.T) {
	kinds := []Kind{KindPanic, KindNaN, KindInf, KindIOErr, KindStall}
	a := NewInjector(12345, 500, 0.1, kinds...)
	b := NewInjector(12345, 500, 0.1, kinds...)
	if !reflect.DeepEqual(a.Faults(), b.Faults()) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a.Faults()) == 0 {
		t.Fatal("rate 0.1 over 500 iters produced no faults")
	}
	c := NewInjector(54321, 500, 0.1, kinds...)
	if reflect.DeepEqual(a.Faults(), c.Faults()) {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, f := range a.Faults() {
		if f.Iter < 0 || f.Iter >= 500 {
			t.Fatalf("fault at iter %d outside [0,500)", f.Iter)
		}
		got, ok := a.At(f.Iter)
		if !ok || got != f {
			t.Fatalf("At(%d) = %+v, %v; want %+v", f.Iter, got, ok, f)
		}
		found := false
		for _, k := range kinds {
			if f.Kind == k {
				found = true
			}
		}
		if !found {
			t.Fatalf("fault kind %v not in the requested set", f.Kind)
		}
	}
	if _, ok := a.At(-1); ok {
		t.Fatal("At(-1) reported a fault")
	}
}

func TestInjectorEmptySchedules(t *testing.T) {
	if n := len(NewInjector(1, 100, 0).Faults()); n != 0 {
		t.Fatalf("rate 0 scheduled %d faults", n)
	}
	if n := len(NewInjector(1, 100, 1.0).Faults()); n != 0 {
		t.Fatalf("no kinds scheduled %d faults", n)
	}
	if n := len(NewInjector(1, 100, 1.0, KindPanic).Faults()); n != 100 {
		t.Fatalf("rate 1 scheduled %d/100 faults", n)
	}
}

// TestFaultFSDeterministic: the same seed and call sequence must inject the
// same faults — the property every chaos test's reproducibility rests on.
func TestFaultFSDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		fs := NewFaultFS(guard.OSFS, seed, 0.3)
		dir := t.TempDir()
		var outcomes []bool
		store, err := guard.NewStore(fs, dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		cp := &guard.Checkpoint{U: []float64{1}, V: []float64{2}, VPrev: []float64{3},
			GPrev: []float64{4}, BestU: []float64{5}}
		for i := 0; i < 40; i++ {
			cp.Iter = i
			outcomes = append(outcomes, store.Save(cp) == nil)
		}
		return outcomes
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different save outcomes")
	}
	var failed int
	for _, ok := range a {
		if !ok {
			failed++
		}
	}
	if failed == 0 || failed == len(a) {
		t.Fatalf("prob 0.3 over %d saves failed %d times — not exercising both paths", len(a), failed)
	}
}

// TestFaultFSInjectsTyped: every injected failure surfaces as ErrInjected,
// distinguishable from real disk errors.
func TestFaultFSInjectsTyped(t *testing.T) {
	fs := NewFaultFS(guard.OSFS, 3, 1.0) // every eligible op faults
	if _, err := fs.Create(t.TempDir() + "/x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Create: %v", err)
	}
	if _, err := fs.ReadFile("nope"); !errors.Is(err, ErrInjected) {
		t.Fatalf("ReadFile: %v", err)
	}
	if err := fs.Rename("a", "b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Rename: %v", err)
	}
	if err := fs.SyncDir("d"); !errors.Is(err, ErrInjected) {
		t.Fatalf("SyncDir: %v", err)
	}
	if fs.Injected != 4 || fs.Ops != 4 {
		t.Fatalf("counted %d injected / %d ops, want 4/4", fs.Injected, fs.Ops)
	}
	// Pass-through ops never fault even at prob 1.
	if err := fs.MkdirAll(t.TempDir() + "/sub"); err != nil {
		t.Fatalf("MkdirAll faulted: %v", err)
	}
	if _, err := fs.ReadDir(t.TempDir()); err != nil {
		t.Fatalf("ReadDir faulted: %v", err)
	}
}

// TestCrashNextWriteTornFile: an armed crash tears the checkpoint write
// mid-file; the Save reports the typed failure, the committed history is
// untouched, and a fresh store over the same directory (the restarted
// process) keeps working.
func TestCrashNextWriteTornFile(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS(guard.OSFS, 5, 0)
	store, err := guard.NewStore(fs, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp := &guard.Checkpoint{U: []float64{1, 2}, V: []float64{3, 4}, VPrev: []float64{5, 6},
		GPrev: []float64{7, 8}, BestU: []float64{9, 10}}
	cp.Iter = 10
	if err := store.Save(cp); err != nil {
		t.Fatalf("healthy save: %v", err)
	}

	fs.CrashNextWrite(64) // die 64 bytes into the next checkpoint
	cp.Iter = 20
	if err := store.Save(cp); !errors.Is(err, ErrInjected) {
		t.Fatalf("crashed save returned %v, want ErrInjected", err)
	}

	// The crash must not have touched the committed history.
	got, _, err := store.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest after crash: %v", err)
	}
	if got.Iter != 10 {
		t.Fatalf("crash corrupted history: latest iter %d, want 10", got.Iter)
	}

	// A fresh store over the same dir (the restarted process) sees only
	// whole checkpoints and keeps working.
	store2, err := guard.NewStore(guard.OSFS, dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cp.Iter = 30
	if err := store2.Save(cp); err != nil {
		t.Fatalf("save after restart: %v", err)
	}
	got, _, err = store2.LoadLatest()
	if err != nil || got.Iter != 30 {
		t.Fatalf("restarted store broken: %v, iter %v", err, got)
	}
}
