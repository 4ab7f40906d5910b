package place

import (
	"runtime"
	"testing"

	"dtgp/internal/gen"
)

// TestSecondPlacementLiveHeap: a design placed a second time in one process
// keeps nothing of the first engine alive. With the engine built and one
// timing-driven step taken, the live heap of the second placement equals
// the first's within 1 MB; a pin slab left in the first engine's arena
// would add that arena's chunk (2 MB at 8k cells).
func TestSecondPlacementLiveHeap(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("replace", 8000, 71))
	if err != nil {
		t.Fatal(err)
	}
	x0, y0 := d.Positions()
	live := func() uint64 {
		d.SetPositions(x0, y0)
		e, err := newEngine(d, con, DefaultOptions(ModeDiffTiming))
		if err != nil {
			t.Fatal(err)
		}
		e.tGrow, e.timingActive = 1, true
		if err := e.step(e.newOptState(), 0, &Result{Mode: ModeDiffTiming}, true); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(e)
		return ms.HeapAlloc
	}
	first := live()
	second := live()
	if diff := int64(second) - int64(first); diff > 1<<20 || diff < -(1<<20) {
		t.Errorf("live heap %d B in the first placement, %d B in the second", first, second)
	}
}
