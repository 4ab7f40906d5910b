// Package parallel provides the data-parallel runtime used by the timing
// and placement kernels. It stands in for the paper's CUDA kernel launches:
// every GPU kernel over an index set becomes a ForCost over the same index
// set, executed by a persistent pool of workers.
//
// Unlike the usual fork/join idiom (spawn goroutines + WaitGroup per call),
// the pool is created once and kept parked between kernels, so a placement
// run that dispatches thousands of level-sweeps per iteration pays no
// goroutine creation or scheduler churn on the critical path — the Go
// analogue of keeping kernel dispatch off the critical path (DG-RePlAce).
//
// Dispatch model:
//
//   - The submitting goroutine participates as lane 0; background workers
//     are lanes 1..Workers()-1. Worker ids are exposed to chunked kernels so
//     callers can keep per-worker scratch (the "worker-local scratch
//     convention" — see DESIGN.md §Parallel runtime).
//   - Workers wait for work with a spin-then-park barrier: a bounded spin on
//     an atomic job sequence number, then parking on a per-worker channel.
//     The same barrier object is reused for every kernel launch.
//   - Whether a kernel runs in parallel is decided by a cost model
//     (n × per-element cost hint), not a bare element count: a 200-pin level
//     of LUT evaluations is worth distributing, 200 trivial copies are not.
//   - Nested or concurrent submissions fall back to inline serial execution
//     (as worker 0), so kernels never deadlock on the shared pool.
//
// All results must be independent of the execution interleaving: kernels
// write disjoint locations, so every schedule produces bit-identical output
// to the serial path.
//
// Panic isolation: a panic inside a kernel body never kills a worker or the
// process. Every lane recovers, the first panic value + stack is captured,
// and after the barrier the submitting goroutine re-panics with a typed
// *KernelPanicError; the pool itself stays parked and fully reusable. The
// run supervisor (internal/guard) catches that error at the iteration
// boundary, optionally replays the kernel with ForceSerial for a
// deterministic diagnostic, and rolls the run back.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ErrCanceled is the typed cancellation signal of the cooperative-stop
// protocol: when a cancel flag registered with SetCancelFlag is set, the
// next kernel submission panics with ErrCanceled *before* dispatching any
// work. The supervisor's iteration-boundary recover (guard.AsError wraps
// error panics with %w) turns it into an error that errors.Is can route to
// a graceful deadline surrender instead of a rollback.
var ErrCanceled = errors.New("parallel: run canceled")

// KernelPanicError is a panic captured inside a parallel kernel. Workers
// recover the panic instead of crashing the process; after the barrier the
// submitting goroutine re-panics with this typed value, so callers that
// supervise kernels (internal/guard) can distinguish a kernel fault from
// any other panic, report the worker's stack, and keep using the pool —
// panic isolation leaves every lane parked and ready for the next job.
type KernelPanicError struct {
	// Value is the original panic value.
	Value any
	// Worker is the lane on which the panic fired.
	Worker int
	// Stack is the panicking worker's stack at the recovery point.
	Stack []byte
}

func (e *KernelPanicError) Error() string {
	return fmt.Sprintf("parallel: kernel panic on worker %d: %v", e.Worker, e.Value)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As chains.
func (e *KernelPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Per-element cost hints for the dispatch cost model, in rough units of
// "nanoseconds of work per element". They only need to be right within an
// order of magnitude.
const (
	// CostTrivial: a copy or a couple of flops.
	CostTrivial = 1
	// CostLight: a short arithmetic kernel, a few branches.
	CostLight = 16
	// CostDefault: unknown work; matches the historical n≥256 cutoff.
	CostDefault = 128
	// CostHeavy: LUT interpolations, per-net tree walks, transcendentals.
	CostHeavy = 512
)

// minParallelWork is the total work (n × cost) below which parallel
// dispatch costs more than it saves.
const minParallelWork = 1 << 15

// laneMinWork is the minimum work assigned to each participating lane;
// fewer lanes are used when the job cannot feed all of them (this fixes the
// old chunk-rounding behaviour that launched near-empty goroutines).
const laneMinWork = 1 << 12

// spinIters bounds the barrier spin phase before a worker parks.
const spinIters = 1 << 13

type jobKind int8

const (
	jobNone   jobKind = iota
	jobIdx            // fn(i) over a static partition
	jobWorker         // fn(worker, lo, hi), one chunk per lane
	jobGuided         // fn(worker, lo, hi), dynamic guided chunks
	jobTasks          // tasks[i](), dynamic
	jobExit           // worker shutdown
)

// lane is the per-worker barrier state, padded to avoid false sharing
// between the parked flags of adjacent workers.
type lane struct {
	parked atomic.Int32
	wake   chan struct{} // capacity 1; tokens may go stale, receivers recheck
	_      [40]byte
}

// Pool is a persistent worker pool. The zero value is not usable; use
// NewPool or the package-level functions (which share one process-wide
// default pool).
type Pool struct {
	lanes int // total lanes including the submitter
	ws    []*lane

	// Barrier state: seq is bumped once per job; pending counts background
	// lanes still running the current job; done carries one completion token
	// per job.
	seq     atomic.Uint64
	pending atomic.Int64
	done    chan struct{}

	// mu serialises submitters. TryLock-failure (nested or concurrent
	// submission) falls back to inline serial execution.
	mu sync.Mutex

	// panicErr holds the first panic captured by any lane of the current
	// job; the submitter re-panics with it after the barrier.
	panicErr atomic.Pointer[KernelPanicError]
	// serial forces inline execution of every kernel (ForceSerial); used by
	// the run supervisor to replay a panicking kernel deterministically.
	serial atomic.Bool
	// cancel optionally points at an external stop flag (SetCancelFlag).
	// Every kernel submission — parallel or serial-fallback — checks it
	// before dispatching work, so cancellation is observed at barrier
	// boundaries only: in-flight kernels always complete and the pool is
	// left idle and reusable. Two relaxed atomic loads on the hot path,
	// zero allocations.
	cancel atomic.Pointer[atomic.Bool]

	// Current job descriptor. Written by the submitter before bumping seq,
	// read by workers after observing the bump.
	kind     jobKind
	n        int
	nLanes   int // lanes participating in the static split
	grain    int
	fnIdx    func(i int)
	fnWorker func(worker, lo, hi int)
	tasks    []func()
	cursor   atomic.Int64
}

// NewPool creates a pool with the given number of lanes (including the
// submitting goroutine). workers <= 1 yields a serial pool with no
// background goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{lanes: workers, done: make(chan struct{}, 1)}
	p.ws = make([]*lane, workers-1)
	for i := range p.ws {
		p.ws[i] = &lane{wake: make(chan struct{}, 1)}
		go p.worker(i+1, p.ws[i])
	}
	return p
}

// Workers returns the number of lanes (maximum worker id + 1). Kernels that
// keep worker-keyed scratch should size it with this.
func (p *Pool) Workers() int { return p.lanes }

// Close shuts the background workers down. Subsequent calls run serially.
// Intended for tests; the process-wide default pool is never closed.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lanes <= 1 {
		return
	}
	p.kind = jobExit
	p.launch()
	p.await0()
	p.lanes = 1
	p.ws = nil
}

// ---------------------------------------------------------------------------
// Public kernels.

// ForCost runs fn(i) for every i in [0, n); cost is the approximate
// per-element work (use the Cost* hints) driving the serial cutoff. fn must
// be safe to call concurrently for distinct i.
func (p *Pool) ForCost(n, cost int, fn func(i int)) {
	p.checkCanceled()
	if n <= 0 {
		return
	}
	if !p.acquire(n, cost) {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.kind, p.n, p.fnIdx = jobIdx, n, fn
	p.nLanes = p.laneCount(n, cost)
	p.run()
}

// ForWorker runs fn(worker, lo, hi) over contiguous chunks covering [0, n),
// one chunk per participating lane, passing the executing worker id so the
// kernel can use worker-keyed scratch. On the serial path fn(0, 0, n) runs
// inline.
func (p *Pool) ForWorker(n, cost int, fn func(worker, lo, hi int)) {
	p.checkCanceled()
	if n <= 0 {
		return
	}
	if !p.acquire(n, cost) {
		fn(0, 0, n)
		return
	}
	p.kind, p.n, p.fnWorker = jobWorker, n, fn
	p.nLanes = p.laneCount(n, cost)
	p.run()
}

// ForGuided runs fn(worker, lo, hi) over [0, n) with dynamic (guided)
// chunking: lanes repeatedly claim a chunk sized max(grain, remaining/(2×
// lanes)) from an atomic cursor. Use it for irregular index sets where
// per-element work varies by orders of magnitude (e.g. per-net Elmore
// kernels, where net sizes are power-law distributed); static splits would
// leave lanes idle behind one huge element.
func (p *Pool) ForGuided(n, grain, cost int, fn func(worker, lo, hi int)) {
	p.checkCanceled()
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if !p.acquire(n, cost) {
		fn(0, 0, n)
		return
	}
	p.kind, p.n, p.grain, p.fnWorker = jobGuided, n, grain, fn
	p.cursor.Store(0)
	p.run()
}

// Run executes the given tasks, distributing them across lanes. Intended
// for small fixed fan-outs of chunky independent work (e.g. zeroing the
// handful of accumulator arrays of a backward pass); there is no cost-model
// cutoff, so do not use it for trivial tasks.
func (p *Pool) Run(tasks ...func()) {
	p.checkCanceled()
	if len(tasks) <= 1 || p.lanes <= 1 || !p.mu.TryLock() {
		for _, t := range tasks {
			t()
		}
		return
	}
	p.kind, p.tasks = jobTasks, tasks
	p.cursor.Store(0)
	p.run()
}

// ---------------------------------------------------------------------------
// Dispatch internals.

// acquire decides parallel vs serial and takes the submission lock when
// parallel. Callers must call run() (which unlocks) when it returns true.
func (p *Pool) acquire(n, cost int) bool {
	if p.lanes <= 1 || n < 2 || n*cost < minParallelWork || p.serial.Load() {
		return false
	}
	return p.mu.TryLock()
}

// ForceSerial switches the pool to inline serial execution (on=true) or back
// to normal cost-model dispatch. With serial forced, kernels run on the
// submitting goroutine in index order and a kernel panic propagates raw —
// exactly what a deterministic diagnostic replay of a KernelPanicError
// needs. Not intended for use while kernels are in flight.
func (p *Pool) ForceSerial(on bool) { p.serial.Store(on) }

// SetCancelFlag registers (or, with nil, deregisters) the cooperative stop
// flag every subsequent kernel submission checks. Setting the flag makes
// the next submission panic with ErrCanceled before any work is dispatched;
// kernels already past the check run to completion, so the pool is always
// left at a barrier, idle and reusable. The registering caller owns the
// flag's lifecycle and must deregister before handing the pool to work that
// should not be cancelable (e.g. post-loop legalization).
func (p *Pool) SetCancelFlag(f *atomic.Bool) { p.cancel.Store(f) }

// checkCanceled is the barrier-boundary cancellation check: a pointer load,
// and only when a flag is registered a bool load. No allocations — the
// sentinel panic value is a package-level error.
//
//dtgp:hotpath
func (p *Pool) checkCanceled() {
	if f := p.cancel.Load(); f != nil && f.Load() {
		panic(ErrCanceled)
	}
}

// laneCount caps the number of participating lanes so each gets at least
// laneMinWork of estimated work.
func (p *Pool) laneCount(n, cost int) int {
	lanes := n * cost / laneMinWork
	if lanes < 2 {
		lanes = 2
	}
	if lanes > p.lanes {
		lanes = p.lanes
	}
	if lanes > n {
		lanes = n
	}
	return lanes
}

// run launches the posted job on all lanes, participates as lane 0, waits
// for the barrier, and releases the submission lock. If any lane's kernel
// panicked, the first captured panic is re-raised here as a typed
// *KernelPanicError — after the pool has been restored to an idle, reusable
// state (barrier drained, job descriptor cleared, lock released).
func (p *Pool) run() {
	p.launch()
	p.safeLane(0)
	p.await0()
	// Drop references so completed kernels aren't pinned by the pool.
	p.fnIdx, p.fnWorker, p.tasks = nil, nil, nil
	p.kind = jobNone
	pe := p.panicErr.Swap(nil)
	p.mu.Unlock()
	if pe != nil {
		panic(pe)
	}
}

// safeLane runs lane w's share of the current job, converting a kernel
// panic into a recorded KernelPanicError instead of letting it unwind the
// lane. Only the first panic of a job is kept; later ones (other lanes hit
// the same poisoned data) add nothing to the diagnostic.
func (p *Pool) safeLane(w int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicErr.CompareAndSwap(nil, &KernelPanicError{
				Value: r, Worker: w, Stack: debug.Stack(),
			})
		}
	}()
	p.runLane(w)
}

// launch publishes the job to the background lanes: bump the sequence, then
// wake any parked worker. The seq bump is the release edge for the plain
// job-descriptor writes that precede it.
func (p *Pool) launch() {
	p.pending.Store(int64(len(p.ws)))
	p.seq.Add(1)
	for _, ls := range p.ws {
		if ls.parked.Load() != 0 {
			select {
			case ls.wake <- struct{}{}:
			default:
			}
		}
	}
}

// await0 is the submitter side of the barrier: spin briefly for the last
// worker, then consume the completion token (exactly one per job).
func (p *Pool) await0() {
	for i := 0; i < spinIters; i++ {
		if p.pending.Load() == 0 {
			break
		}
		if i&255 == 255 {
			runtime.Gosched()
		}
	}
	<-p.done
}

// worker is the background lane main loop.
func (p *Pool) worker(id int, ls *lane) {
	var seq uint64
	for {
		seq++
		p.awaitJob(ls, seq)
		exit := p.kind == jobExit
		if !exit {
			p.safeLane(id)
		}
		if p.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
		if exit {
			return
		}
	}
}

// awaitJob blocks lane ls until job number s is posted: bounded spin on the
// job sequence, then park on the wake channel. Wake tokens can be stale
// (sent for a job the spin already observed), so every wake rechecks the
// sequence; the Store(parked) → recheck ordering pairs with the submitter's
// bump → read(parked) ordering, so at least one side always notices.
func (p *Pool) awaitJob(ls *lane, s uint64) {
	for i := 0; i < spinIters; i++ {
		if p.seq.Load() >= s {
			return
		}
		if i&255 == 255 {
			runtime.Gosched()
		}
	}
	for {
		ls.parked.Store(1)
		if p.seq.Load() >= s {
			ls.parked.Store(0)
			// Drop a stale token if one already landed.
			select {
			case <-ls.wake:
			default:
			}
			return
		}
		<-ls.wake
		ls.parked.Store(0)
		if p.seq.Load() >= s {
			return
		}
	}
}

// runLane executes lane w's share of the current job.
func (p *Pool) runLane(w int) {
	switch p.kind {
	case jobIdx:
		lo, hi := split(p.n, p.nLanes, w)
		fn := p.fnIdx
		for i := lo; i < hi; i++ {
			fn(i)
		}
	case jobWorker:
		if lo, hi := split(p.n, p.nLanes, w); lo < hi {
			p.fnWorker(w, lo, hi)
		}
	case jobGuided:
		p.runGuided(w)
	case jobTasks:
		tasks := p.tasks
		for {
			i := int(p.cursor.Add(1)) - 1
			if i >= len(tasks) {
				return
			}
			tasks[i]()
		}
	}
}

// split returns lane w's balanced share of [0, n) over `lanes` lanes:
// every chunk has ⌊n/lanes⌋ or ⌈n/lanes⌉ elements, never a near-empty
// remainder chunk.
func split(n, lanes, w int) (lo, hi int) {
	if w >= lanes {
		return 0, 0
	}
	return w * n / lanes, (w + 1) * n / lanes
}

// runGuided claims guided chunks until the cursor is exhausted.
func (p *Pool) runGuided(w int) {
	n, grain, lanes := p.n, p.grain, p.lanes
	fn := p.fnWorker
	for {
		seen := int(p.cursor.Load())
		if seen >= n {
			return
		}
		c := (n - seen) / (2 * lanes)
		if c < grain {
			c = grain
		}
		lo := int(p.cursor.Add(int64(c))) - c
		if lo >= n {
			return
		}
		hi := lo + c
		if hi > n {
			hi = n
		}
		fn(w, lo, hi)
	}
}

// ---------------------------------------------------------------------------
// Process-wide default pool.

var defaultPool atomic.Pointer[Pool]

// Default returns the process-wide pool, creating it with GOMAXPROCS lanes
// on first use.
func Default() *Pool {
	if p := defaultPool.Load(); p != nil {
		return p
	}
	p := NewPool(runtime.GOMAXPROCS(0))
	if defaultPool.CompareAndSwap(nil, p) {
		return p
	}
	p.Close()
	return defaultPool.Load()
}

// SetWorkers replaces the default pool with one of the given size and
// closes the previous one. Intended for tests that need real multi-lane
// execution regardless of GOMAXPROCS; not safe to call while kernels are in
// flight.
//
//dtgp:allow(unreached) core's TestIncrementalTimerStress, TestDiffTimingFlowStress; density's TestSolveDeterministicAcrossWorkers
func SetWorkers(n int) {
	old := defaultPool.Swap(NewPool(n))
	if old != nil {
		old.Close()
	}
}

// Workers returns the lane count of the default pool.
func Workers() int { return Default().Workers() }

// ForCost runs fn(i) for every i in [0, n) on the default pool; cost is the
// per-element work hint. fn must be safe to call concurrently for distinct
// i.
func ForCost(n, cost int, fn func(i int)) { Default().ForCost(n, cost, fn) }

// ForWorker runs fn(worker, lo, hi) over a static partition of [0, n).
func ForWorker(n, cost int, fn func(worker, lo, hi int)) { Default().ForWorker(n, cost, fn) }

// ForGuided runs fn(worker, lo, hi) over [0, n) with guided dynamic chunks.
func ForGuided(n, grain, cost int, fn func(worker, lo, hi int)) {
	Default().ForGuided(n, grain, cost, fn)
}

// Run executes the tasks across lanes (small fixed fan-outs).
func Run(tasks ...func()) { Default().Run(tasks...) }

// ForceSerial toggles inline serial execution on the default pool.
func ForceSerial(on bool) { Default().ForceSerial(on) }

// SetCancelFlag registers the cooperative stop flag on the default pool
// (nil deregisters). See Pool.SetCancelFlag.
func SetCancelFlag(f *atomic.Bool) { Default().SetCancelFlag(f) }
