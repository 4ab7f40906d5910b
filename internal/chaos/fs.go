package chaos

import (
	"errors"
	"math/rand"

	"dtgp/internal/guard"
)

// ErrInjected is the typed error every injected I/O fault surfaces as, so
// tests can assert a failure came from the harness and not a real disk.
var ErrInjected = errors.New("chaos: injected I/O fault")

// FaultFS wraps a guard.FS with seed-deterministic fault injection on the
// operations a checkpoint save or load actually depends on: Create, Write,
// Sync, Rename, SyncDir and ReadFile. Directory bookkeeping (MkdirAll,
// ReadDir, Remove) passes through untouched so the store's retention and
// temp-file cleanup stay observable in tests.
//
// Faults are drawn from a private RNG stream, one draw per fault-eligible
// operation, so a given seed + call sequence produces the same failures
// every run. FaultFS is not safe for concurrent use; the checkpoint store
// is single-writer by contract.
type FaultFS struct {
	inner guard.FS
	rng   *rand.Rand
	prob  float64

	// crashBudget, when >= 0, arms a simulated crash: the next created
	// file accepts exactly crashBudget bytes and then fails every Write
	// and Sync — modelling a process killed mid-checkpoint, torn temp
	// file left on disk.
	crashBudget int

	// Ops counts fault-eligible operations attempted; Injected counts
	// faults actually injected.
	Ops, Injected int
}

// NewFaultFS wraps inner with fault probability prob per eligible
// operation, deterministic in seed.
//
//dtgp:allow(unreached) place's TestChaosMatrix* tests and TestCheckpointIOFaultsDoNotPerturbTrajectory
func NewFaultFS(inner guard.FS, seed int64, prob float64) *FaultFS {
	if inner == nil {
		inner = guard.OSFS
	}
	return &FaultFS{inner: inner, rng: rand.New(rand.NewSource(seed)), prob: prob, crashBudget: -1}
}

// roll consumes one RNG draw and decides whether this operation faults.
func (f *FaultFS) roll() bool {
	f.Ops++
	if f.prob > 0 && f.rng.Float64() < f.prob {
		f.Injected++
		return true
	}
	return false
}

func (f *FaultFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *FaultFS) Create(name string) (guard.File, error) {
	if f.roll() {
		return nil, ErrInjected
	}
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	if f.crashBudget >= 0 {
		budget := f.crashBudget
		f.crashBudget = -1
		f.Injected++
		return &crashFile{inner: file, budget: budget}, nil
	}
	return &faultFile{inner: file, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if f.roll() {
		return nil, ErrInjected
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if f.roll() {
		return ErrInjected
	}
	return f.inner.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *FaultFS) SyncDir(dir string) error {
	if f.roll() {
		return ErrInjected
	}
	return f.inner.SyncDir(dir)
}

// faultFile forwards to the real file, rolling for a fault on each Write
// and Sync.
type faultFile struct {
	inner guard.File
	fs    *FaultFS
}

func (w *faultFile) Write(p []byte) (int, error) {
	if w.fs.roll() {
		return 0, ErrInjected
	}
	return w.inner.Write(p)
}

func (w *faultFile) Sync() error {
	if w.fs.roll() {
		return ErrInjected
	}
	return w.inner.Sync()
}

func (w *faultFile) Close() error { return w.inner.Close() }

// crashFile writes through until its byte budget is exhausted, then fails
// everything — the on-disk result is exactly the torn prefix a crash
// mid-write leaves behind.
type crashFile struct {
	inner   guard.File
	budget  int
	written int
}

func (w *crashFile) Write(p []byte) (int, error) {
	room := w.budget - w.written
	if room <= 0 {
		return 0, ErrInjected
	}
	if len(p) <= room {
		n, err := w.inner.Write(p)
		w.written += n
		return n, err
	}
	n, err := w.inner.Write(p[:room])
	w.written += n
	if err != nil {
		return n, err
	}
	return n, ErrInjected
}

// Sync fails: a crashed process never reached its durability barrier.
func (w *crashFile) Sync() error { return ErrInjected }

func (w *crashFile) Close() error { return w.inner.Close() }
