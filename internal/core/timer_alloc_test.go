package core

import (
	"testing"
)

// TestLevelBucketsAllocsPinned guards the one-pass level-bucket build: at
// most two allocations (the outer slice of windows, and a fresh arena slab
// when the carve does not fit the current one), regardless of level count —
// the old build did one make per level.
func TestLevelBucketsAllocsPinned(t *testing.T) {
	g := makeTestBed(t, 400, 46)
	tm := NewTimer(g, DefaultOptions())
	if len(g.Levels) < 8 {
		t.Fatalf("test bed too shallow (%d levels) to catch per-level allocation", len(g.Levels))
	}
	allocs := testing.AllocsPerRun(10, func() {
		tm.buildLevelBuckets()
	})
	if allocs > 2 {
		t.Fatalf("buildLevelBuckets allocates %.0f times, want <= 2 (slab + outer)", allocs)
	}
}

// TestIncrementalSteadyStateBuckets verifies the slab-backed buckets never
// grow past their level capacity across incremental evaluations (growth
// would silently fall off the slab onto the heap and lose locality).
func TestIncrementalSteadyStateBuckets(t *testing.T) {
	g := makeTestBed(t, 300, 47)
	tm := NewTimer(g, DefaultOptions())
	for it := 0; it < 8; it++ {
		tm.Evaluate(0.01, 0.0001)
		moveCells(g.D, it)
	}
	for li, bucket := range tm.levelBuckets {
		if cap(bucket) > len(g.Levels[li]) {
			t.Fatalf("level %d bucket cap %d exceeds level size %d (reallocated off the slab)",
				li, cap(bucket), len(g.Levels[li]))
		}
	}
}
