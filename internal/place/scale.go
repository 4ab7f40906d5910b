package place

import (
	"fmt"
	"time"

	"dtgp/internal/arena"
	"dtgp/internal/netlist"
	"dtgp/internal/sdc"
)

// ScaleStats is the measurement record of one RunScaleBench call.
type ScaleStats struct {
	// BuildSec is engine construction: netlist compaction, timing-graph
	// levelisation and timer construction (net states are built lazily by
	// the first evaluation, so they land in IterSec[0]).
	BuildSec float64
	// IterSec is the wall time of each timing-driven iteration. Iteration
	// 0 additionally pays the first net-state build and the λ calibration
	// (a second gradient evaluation), so it is excluded from SecPerIter.
	IterSec []float64
	// SecPerIter is the steady-state mean over IterSec[1:] (IterSec[0]
	// when only one iteration ran).
	SecPerIter float64
	// Arena reports the engine's slab usage.
	Arena arena.Stats
}

// RunScaleBench times netlist build plus a fixed number of timing-driven
// placement iterations on a design — the cells-vs-time trajectory behind
// BENCH_scale.json. It drives the same engine and step kernel as Run, with
// the differences a kernel benchmark wants: timing is active from iteration
// 0 (no warm-up schedule), the steps run without the supervisor (checkpoint
// snapshots would copy the full position vectors every ring save), and
// legalization is skipped. The engine is discarded afterwards; the design's cell
// positions are left where the iterations put them.
func RunScaleBench(d *netlist.Design, con *sdc.Constraints, opts Options, iters int) (*ScaleStats, error) {
	if iters < 1 {
		return nil, fmt.Errorf("place: RunScaleBench needs iters >= 1, got %d", iters)
	}
	opts.Mode = ModeDiffTiming
	opts.SkipLegalize = true
	opts.Logf = func(string, ...any) {}

	t0 := time.Now()
	e, err := newEngine(d, con, opts)
	if err != nil {
		return nil, err
	}
	st := e.newOptState()
	e.tGrow = 1
	e.timingActive = true
	stats := &ScaleStats{
		BuildSec: time.Since(t0).Seconds(),
		IterSec:  make([]float64, iters),
	}

	res := &Result{Mode: opts.Mode}
	for k := 0; k < iters; k++ {
		t1 := time.Now()
		if err := e.step(st, k, res, true); err != nil {
			return nil, err
		}
		stats.IterSec[k] = time.Since(t1).Seconds()
	}
	if iters > 1 {
		sum := 0.0
		for _, s := range stats.IterSec[1:] {
			sum += s
		}
		stats.SecPerIter = sum / float64(iters-1)
	} else {
		stats.SecPerIter = stats.IterSec[0]
	}
	stats.Arena = e.arena.Stats()
	return stats, nil
}
