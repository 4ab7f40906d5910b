package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversRangeSmall(t *testing.T) {
	seen := make([]int32, 100)
	ForCost(100, CostDefault, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestForCoversRangeLarge(t *testing.T) {
	n := 100000
	seen := make([]int32, n)
	ForCost(n, CostDefault, func(i int) { atomic.AddInt32(&seen[i], 1) })
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	ForCost(0, CostDefault, func(int) { called = true })
	ForCost(-5, CostDefault, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestForWorkerSmallRunsOnce: below the cutoff a chunked kernel runs once,
// inline, over the whole range as worker 0.
func TestForWorkerSmallRunsOnce(t *testing.T) {
	var calls int64
	ForWorker(10, CostDefault, func(w, lo, hi int) {
		atomic.AddInt64(&calls, 1)
		if w != 0 || lo != 0 || hi != 10 {
			t.Errorf("small range split: worker %d [%d,%d)", w, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

// TestPoolForCovers exercises a real multi-lane pool regardless of
// GOMAXPROCS, reusing the same barrier across many launches.
func TestPoolForCovers(t *testing.T) {
	p := NewPool(5)
	defer p.Close()
	for round := 0; round < 50; round++ {
		n := 1000 + round*striping
		seen := make([]int32, n)
		p.ForCost(n, CostHeavy, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, v := range seen {
			if v != 1 {
				t.Fatalf("round %d: index %d visited %d times", round, i, v)
			}
		}
	}
}

const striping = 37

// TestPoolChunksBalanced asserts the satellite fix: static partitions are
// balanced (chunk sizes differ by at most one element), so no lane is
// launched with a near-empty remainder range.
func TestPoolChunksBalanced(t *testing.T) {
	p := NewPool(7)
	defer p.Close()
	for _, n := range []int{300, 1000, 4099, 100000} {
		var mu atomic.Int64
		sizes := make([]int64, 64)
		var count atomic.Int64
		p.ForWorker(n, CostHeavy, func(w, lo, hi int) {
			k := count.Add(1) - 1
			sizes[k] = int64(hi - lo)
			mu.Add(int64(hi - lo))
		})
		if mu.Load() != int64(n) {
			t.Fatalf("n=%d: covered %d", n, mu.Load())
		}
		mn, mx := int64(1<<62), int64(0)
		for i := int64(0); i < count.Load(); i++ {
			if sizes[i] < mn {
				mn = sizes[i]
			}
			if sizes[i] > mx {
				mx = sizes[i]
			}
		}
		if count.Load() > 1 && mx-mn > 1 {
			t.Errorf("n=%d: unbalanced chunks min=%d max=%d", n, mn, mx)
		}
	}
}

// TestLaneCountCapped: a job barely past the cutoff must not fan out to
// every lane with tiny chunks.
func TestLaneCountCapped(t *testing.T) {
	p := NewPool(16)
	defer p.Close()
	// n*CostDefault just over minParallelWork: expect very few lanes.
	n := minParallelWork/CostDefault + 8
	var chunks atomic.Int64
	p.ForWorker(n, CostDefault, func(w, lo, hi int) { chunks.Add(1) })
	if got := chunks.Load(); got > 8 {
		t.Errorf("tiny job fanned out to %d chunks", got)
	}
}

func TestForGuidedCoversIrregular(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	n := 10000
	seen := make([]int32, n)
	p.ForGuided(n, 8, CostHeavy, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var flags [5]atomic.Int32
	p.Run(
		func() { flags[0].Add(1) },
		func() { flags[1].Add(1) },
		func() { flags[2].Add(1) },
		func() { flags[3].Add(1) },
		func() { flags[4].Add(1) },
	)
	for i := range flags {
		if flags[i].Load() != 1 {
			t.Fatalf("task %d ran %d times", i, flags[i].Load())
		}
	}
}

func TestRunEmptyAndSingle(t *testing.T) {
	Run()
	ran := false
	Run(func() { ran = true })
	if !ran {
		t.Fatal("single task not run")
	}
}

// TestNestedSubmissionFallsBackSerial: a kernel that itself submits must
// not deadlock; the inner call runs inline.
func TestNestedSubmissionFallsBackSerial(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var total atomic.Int64
	p.ForCost(1000, CostHeavy, func(i int) {
		if i == 0 {
			p.ForCost(1000, CostHeavy, func(j int) { total.Add(1) })
		}
	})
	if total.Load() != 1000 {
		t.Fatalf("nested call covered %d of 1000", total.Load())
	}
}

// TestWorkerIDsInRange: every reported worker id addresses valid scratch.
func TestWorkerIDsInRange(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	var bad atomic.Int64
	p.ForGuided(50000, 16, CostHeavy, func(w, lo, hi int) {
		if w < 0 || w >= p.Workers() {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d chunks saw out-of-range worker ids", bad.Load())
	}
}

// TestBarrierReuseStress reuses one pool across many heterogeneous
// launches; run with -race to exercise the barrier's publication edges.
func TestBarrierReuseStress(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	buf := make([]int64, 4096)
	for iter := 0; iter < 300; iter++ {
		p.ForCost(len(buf), CostHeavy, func(i int) { buf[i]++ })
		p.ForGuided(len(buf), 4, CostHeavy, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i]++
			}
		})
		p.Run(
			func() {
				for i := 0; i < len(buf)/2; i++ {
					buf[i]++
				}
			},
			func() {
				for i := len(buf) / 2; i < len(buf); i++ {
					buf[i]++
				}
			},
		)
	}
	for i, v := range buf {
		if v != 900 {
			t.Fatalf("buf[%d] = %d, want 900", i, v)
		}
	}
}

// --- microbenchmarks of the runtime itself ---

func benchPoolFor(b *testing.B, n int) {
	p := NewPool(4)
	defer p.Close()
	sink := make([]float64, n)
	fn := func(j int) { sink[j] += 1 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForCost(n, CostHeavy, fn)
	}
}

func BenchmarkPoolFor64(b *testing.B)   { benchPoolFor(b, 64) }
func BenchmarkPoolFor1k(b *testing.B)   { benchPoolFor(b, 1000) }
func BenchmarkPoolFor100k(b *testing.B) { benchPoolFor(b, 100000) }

// BenchmarkPoolLevelSweep mimics the timer's level-synchronous dispatch
// pattern: many small launches per "iteration", sized like the levels of a
// levelized timing graph.
func BenchmarkPoolLevelSweep(b *testing.B) {
	levels := []int{4, 16, 64, 180, 400, 350, 200, 90, 30, 8}
	p := NewPool(4)
	defer p.Close()
	sink := make([]float64, 512)
	fn := func(j int) { sink[j&511] += 1 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range levels {
			p.ForCost(n, CostHeavy, fn)
		}
	}
}

// BenchmarkGoroutinePerLaunch is the old fork/join dispatch for comparison
// (what every kernel launch used to pay).
func BenchmarkGoroutinePerLaunch(b *testing.B) {
	levels := []int{4, 16, 64, 180, 400, 350, 200, 90, 30, 8}
	sink := make([]float64, 512)
	fn := func(j int) { sink[j&511] += 1 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range levels {
			forkJoin(n, 4, fn)
		}
	}
}

// forkJoin reproduces the seed implementation's dispatch.
func forkJoin(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	done := make(chan struct{}, workers)
	launched := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		launched++
		go func(lo, hi int) {
			for i := lo; i < hi; i++ {
				fn(i)
			}
			done <- struct{}{}
		}(lo, hi)
	}
	for i := 0; i < launched; i++ {
		<-done
	}
}
