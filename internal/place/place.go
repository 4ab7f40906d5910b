// Package place implements the nonlinear global-placement engine the paper
// builds on (the DREAMPlace/ePlace lineage): weighted-average wirelength +
// electrostatic density penalty, minimised with Nesterov's accelerated
// gradient and Barzilai–Borwein step sizes, plus the three timing flavours
// compared in the paper's Table 3:
//
//   - ModeWirelength — plain wirelength-driven placement ([16]);
//   - ModeNetWeight  — momentum-based net weighting driven by a periodic
//     exact STA ([24]);
//   - ModeDiffTiming — the paper's differentiable-timing objective (Eq. 6).
//
// The engine's degree-of-freedom arrays are subscripted by the slot domain:
// design cells first (slot i < nReal is cell i by construction), density
// fillers after, so its capacity is the cell population plus as many fillers.
//
//dtgp:indexdomain slot cap=4000000
package place

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"dtgp/internal/arena"
	"dtgp/internal/core"
	"dtgp/internal/density"
	"dtgp/internal/geom"
	"dtgp/internal/guard"
	"dtgp/internal/legalize"
	"dtgp/internal/netlist"
	"dtgp/internal/netweight"
	"dtgp/internal/parallel"
	"dtgp/internal/sdc"
	"dtgp/internal/timing"
	"dtgp/internal/wirelength"
)

// Mode selects the optimization flavour.
type Mode int

// Flow modes.
const (
	// ModeWirelength is plain wirelength-driven placement (DREAMPlace [16]).
	ModeWirelength Mode = iota
	// ModeNetWeight is the momentum-based net-weighting baseline ([24]).
	ModeNetWeight
	// ModeDiffTiming is the paper's differentiable-timing-driven flow.
	ModeDiffTiming
)

func (m Mode) String() string {
	switch m {
	case ModeWirelength:
		return "wirelength"
	case ModeNetWeight:
		return "netweight"
	case ModeDiffTiming:
		return "difftiming"
	default:
		return "unknown"
	}
}

// Options configure a placement run.
type Options struct {
	Mode Mode
	// MaxIters bounds the Nesterov loop.
	MaxIters int
	// StopOverflow is the density-overflow stop criterion shared by all
	// flows (the paper: "the same stop criterion on density overflow").
	StopOverflow float64 //dtgp:allow(unturned) TestDeadlineSurrendersWithFinalCheckpoint sets 0
	// TargetDensity per bin.
	TargetDensity float64 //dtgp:allow(unturned) benchmark/profile.go's replayer reads it until ROADMAP item 2 deletes it
	// WLGammaFactor: wirelength smoothing γ = factor × bin size.
	WLGammaFactor float64 //dtgp:allow(unturned) benchmark/profile.go's replayer reads it until ROADMAP item 2 deletes it
	// Seed randomises the initial spread jitter.
	Seed int64 //dtgp:allow(unturned) TestResumeMismatchRejected resumes under another seed

	// TimingStartIter activates timing optimization (≈100 in the paper);
	// timing also activates early once overflow < TimingStartOverflow.
	TimingStartIter     int     //dtgp:allow(unturned) benchmark/flow.go's timingFrom reads it until ROADMAP item 2 deletes it
	TimingStartOverflow float64 //dtgp:allow(unturned) benchmark/flow.go's timingFrom reads it until ROADMAP item 2 deletes it
	// T1 and T2 weight the TNS and WNS terms of Eq. 6. engine.gradient
	// clips the timing gradient per component at 50× the mean wirelength
	// component and rescales it at every evaluation (see TimingScale), so
	// T1:T2 sets the mix of the two terms and their common scale acts only
	// through the clip.
	T1, T2 float64
	// TimingGrowth multiplies tGrow once per iteration after activation
	// (the paper grows t1 and t2 by 1% per iteration, §4). tGrow's cap of
	// 10 never binds at the default TimingScale: the 0.35 cap below binds
	// from tGrow ≈ 2.33, about 85 iterations after activation.
	TimingGrowth float64 //dtgp:allow(unturned) ROADMAP item 8's A4 sweeps it
	// TimingScale: every evaluation rescales the clipped timing gradient
	// to min(TimingScale·tGrow, 0.35)·‖∇WL‖₁, backed off by exp(−WNS/γ)
	// once WNS > 0.
	TimingScale float64 //dtgp:allow(unturned) ROADMAP item 8's A4 sweeps it
	// TimingGamma is the LSE smoothing γ of the differentiable timer.
	TimingGamma float64
	// FencePeriod is the Steiner-tree reuse period (§3.6, "every 10
	// iterations"): the differentiable timer's full-refresh fence
	// re-extracts every net's topology once per FencePeriod
	// evaluations (core.Options.FencePeriod).
	FencePeriod int

	// TraceTiming records exact WNS/TNS along the run (Fig. 8); expensive.
	TraceTiming bool
	// TracePeriod is the iteration stride of exact-STA trace points.
	TracePeriod int
	// CheckpointDir, when non-empty, durably persists every healthy
	// checkpoint (crash-consistent: temp file + fsync + atomic rename), so
	// a killed run can resume. Durable checkpointing re-anchors the
	// incremental timer at every save — a deterministic cadence change,
	// so a durable run is bit-identical to its own resumed runs and
	// re-runs, but not to a run without a checkpoint directory (same
	// contract as changing the fence period).
	CheckpointDir string
	// CheckpointKeep bounds retention in CheckpointDir (<= 0 keeps all).
	CheckpointKeep int
	// CheckpointFS overrides the filesystem the durable store writes
	// through (nil = the real filesystem). The chaos harness injects
	// deterministic I/O faults here.
	CheckpointFS guard.FS //dtgp:allow(unturned) the chaos tests and TestCheckpointIOFaultsDoNotPerturbTrajectory inject faults
	// Resume, when set, restores the optimizer from a durable checkpoint
	// (guard.Store.LoadLatest) instead of cold-starting: the run continues
	// at Resume.Iter+1 and its final placement is bit-identical to the
	// uninterrupted durable run. The checkpoint must match this run's
	// design shape and Seed (guard.ErrMismatch otherwise).
	Resume *guard.Checkpoint
	// Deadline, when non-zero, is the wall-clock instant at which the run
	// stops cooperatively: the supervisor persists a final checkpoint
	// (when CheckpointDir is set) and surrenders the best finite iterate.
	// Observed at iteration and parallel-kernel barrier boundaries.
	Deadline time.Time
	// Cancel, when non-nil, is an external cooperative stop flag with the
	// same semantics as Deadline (set it from another goroutine or a
	// signal handler to request graceful shutdown).
	Cancel *atomic.Bool //dtgp:allow(unturned) the TestCancel* tests set it
	// SkipLegalize leaves the result as raw global placement.
	SkipLegalize bool
	// Logf receives progress output; nil discards it.
	Logf func(format string, args ...any)
}

// The optimizer's fixed schedule. λ starts at lambdaInitFactor times the
// wirelength/density gradient-norm ratio and grows by lambdaGrowth per
// iteration until the density force dominates. The supervisor snapshots a
// healthy run every checkpointPeriod iterations into a ring of ringSize
// and surrenders after retryBudget rollbacks.
const (
	lambdaInitFactor = 5e-4
	lambdaGrowth     = 1.05
	checkpointPeriod = 10
	ringSize         = 4
	retryBudget      = 3
)

// DefaultOptions returns the configuration used by the benchmark harness.
func DefaultOptions(mode Mode) Options {
	return Options{
		Mode:                mode,
		MaxIters:            900,
		StopOverflow:        0.08,
		TargetDensity:       1.0,
		WLGammaFactor:       0.5,
		TimingStartIter:     100,
		TimingStartOverflow: 0.45,
		T1:                  0.01,
		T2:                  0.001,
		TimingGrowth:        1.01,
		TimingScale:         0.15,
		TimingGamma:         100,
		FencePeriod:         10,
		TracePeriod:         10,
	}
}

// TracePoint is one sample of the optimization trajectory (Fig. 8 data).
type TracePoint struct {
	Iter      int
	HPWL      float64
	Overflow  float64
	WNS, TNS  float64
	HasTiming bool
}

// Result summarises a finished placement run.
type Result struct {
	Mode       Mode
	Iterations int
	// HPWL after the full flow (post-legalization unless skipped).
	HPWL float64
	// WNS/TNS from the final exact STA.
	WNS, TNS float64
	Runtime  time.Duration
	Trace    []TracePoint
	Legal    *legalize.Result
	STA      *timing.Result
	// Recovery is the supervisor's fault-tolerance record;
	// Recovery.Healthy() distinguishes a clean run from one that rolled
	// back or surrendered.
	Recovery *guard.Report
}

// Run places the design in-place and returns metrics. The constraints may
// be nil only for ModeWirelength (timing flows and the final STA need a
// clock).
func Run(d *netlist.Design, con *sdc.Constraints, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	e, err := newEngine(d, con, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Mode: opts.Mode}
	if err := e.optimize(res); err != nil {
		return nil, err
	}

	if !opts.SkipLegalize {
		lg, err := legalize.Legalize(d)
		if err != nil {
			return nil, err
		}
		res.Legal = lg
	}
	res.HPWL = d.HPWL()
	if e.graph != nil {
		res.STA = timing.Analyze(e.graph)
		res.WNS = res.STA.WNS
		res.TNS = res.STA.TNS
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// engine carries all per-run state.
type engine struct {
	d    *netlist.Design
	con  *sdc.Constraints
	opts Options

	// Degree-of-freedom slots: design cells first, fillers after.
	nReal, nFill int
	w, h         []float64 //dtgp:index domain=slot
	movable      []bool    //dtgp:index domain=slot
	// position vector z = [x..., y...], length 2*nSlots.
	z []float64

	wl    *wirelength.Model
	grid  *density.Grid
	graph *timing.Graph
	timer *core.Timer
	nwUp  *netweight.Updater
	// arena backs the netlist/timer/net-state SoA storage for this run.
	arena *arena.Arena
	// staInc is the lazily built incremental exact-STA engine backing the
	// net-weighting hook.
	staInc *timing.Incremental

	lambda float64
	// timing activation state
	timingActive bool
	tGrow        float64

	// scratch
	gradX, gradY []float64 //dtgp:index domain=slot
	// wlGX/wlGY are the wirelength gradient over real cells; dx..dh and
	// dgx/dgy are density arrays over the compacted movable-slot positions
	// (the dSlot list), which have no domain of their own.
	wlGX, wlGY     []float64 //dtgp:index domain=cell
	dx, dy, dw, dh []float64
	dgx, dgy       []float64
	dSlot          []int32   //dtgp:index elem=slot
	mx, my, mw, mh []float64 // overflow arrays over real movable cells
	nMov           int       // movable real (non-filler) cell count

	// faultHook, when set (tests only), runs right after each gradient
	// evaluation with the freshly computed gradient. Fault-injection tests
	// use it to poison an entry with NaN or to dispatch a panicking
	// parallel kernel at a chosen iteration.
	faultHook func(iter int, g []float64)

	// stopFlag is the cooperative-cancellation flag the optimize loop
	// registers with the worker pool when a Deadline or Cancel option is
	// configured: the deadline timer (and the external Cancel flag, copied
	// at iteration boundaries) sets it, and the next iteration or kernel
	// barrier observes it.
	stopFlag atomic.Bool
}

func newEngine(d *netlist.Design, con *sdc.Constraints, opts Options) (*engine, error) {
	if len(d.Cells) == 0 {
		return nil, fmt.Errorf("place: empty design")
	}
	if opts.Mode != ModeWirelength && con == nil {
		return nil, fmt.Errorf("place: %v requires SDC constraints", opts.Mode)
	}
	e := &engine{d: d, con: con, opts: opts}
	e.nReal = len(d.Cells)

	// Slab storage for the big SoA surfaces (timer state, net-state
	// columns). The design's pin lists go into a slab of the design's own,
	// which outlives the engine: Compact takes no storage from the arena,
	// and it is idempotent, so a design re-placed keeps its slab.
	e.arena = arena.New(arena.ChunkSize(e.nReal))
	d.Compact(nil)

	// Fillers occupy the whitespace so the density system has a
	// well-defined equilibrium (ePlace §filler insertion).
	avgW, avgH, movArea := 0.0, 0.0, 0.0
	nMov := 0
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Movable() && c.Class != netlist.ClassFiller {
			avgW += c.W
			avgH += c.H
			movArea += c.W * c.H
			nMov++
		}
	}
	if nMov == 0 {
		return nil, fmt.Errorf("place: no movable cells")
	}
	avgW /= float64(nMov)
	avgH /= float64(nMov)
	freeArea := d.Die.Area()*opts.TargetDensity - d.FixedArea() - movArea
	if freeArea < 0 {
		freeArea = 0
	}
	e.nFill = int(freeArea / (avgW * avgH))

	nSlots := e.nReal + e.nFill
	e.w = make([]float64, nSlots)
	e.h = make([]float64, nSlots)
	e.movable = make([]bool, nSlots)
	e.z = make([]float64, 2*nSlots)
	e.gradX = make([]float64, nSlots)
	e.gradY = make([]float64, nSlots)
	for ci := range d.Cells {
		c := &d.Cells[ci]
		e.w[ci], e.h[ci] = c.W, c.H //dtgp:allow(indexspace) design cells occupy slots 0..nReal-1 in cell order by construction
		e.movable[ci] = c.Movable() //dtgp:allow(indexspace) same cell-id/slot-prefix embedding
		e.z[ci] = c.Pos.X
		e.z[nSlots+ci] = c.Pos.Y
	}
	rng := rand.New(rand.NewSource(opts.Seed + 12345))
	for f := 0; f < e.nFill; f++ {
		slot := e.nReal + f
		e.w[slot], e.h[slot] = avgW, avgH
		e.movable[slot] = true
		e.z[slot] = d.Die.Lo.X + rng.Float64()*(d.Die.W()-avgW)
		e.z[nSlots+slot] = d.Die.Lo.Y + rng.Float64()*(d.Die.H()-avgH)
	}

	// Initial spread: movable real cells around the die centroid with a
	// gaussian jitter (standard analytical-placement initialisation).
	cx, cy := d.Die.Center().X, d.Die.Center().Y
	sigma := math.Min(d.Die.W(), d.Die.H()) * 0.05
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if !e.movable[ci] || c.Class == netlist.ClassFiller { //dtgp:allow(indexspace) cell-id/slot-prefix embedding (see newEngine)
			continue
		}
		e.z[ci] = geom.Clamp(cx+rng.NormFloat64()*sigma-c.W/2, d.Die.Lo.X, d.Die.Hi.X-c.W)
		e.z[nSlots+ci] = geom.Clamp(cy+rng.NormFloat64()*sigma-c.H/2, d.Die.Lo.Y, d.Die.Hi.Y-c.H)
	}

	// Density grid.
	bins := 1
	for bins*bins < nMov && bins < 512 {
		bins *= 2
	}
	if bins < 16 {
		bins = 16
	}
	grid, err := density.NewGrid(d.Die, bins, bins, opts.TargetDensity)
	if err != nil {
		return nil, err
	}
	e.grid = grid
	var fixedRects []geom.Rect
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Fixed() && c.W > 0 && c.H > 0 {
			fixedRects = append(fixedRects, geom.NewRect(c.Pos.X, c.Pos.Y, c.Pos.X+c.W, c.Pos.Y+c.H))
		}
	}
	grid.SetFixed(fixedRects)

	e.wl = wirelength.NewModel(d, math.Max(opts.WLGammaFactor*grid.BinW, 1e-6))

	if con != nil {
		g, err := timing.NewGraph(d, con)
		if err != nil {
			return nil, err
		}
		e.graph = g
		if opts.Mode == ModeDiffTiming {
			tOpts := core.DefaultOptions()
			tOpts.Gamma = opts.TimingGamma
			tOpts.FencePeriod = opts.FencePeriod
			tOpts.Arena = e.arena
			e.timer = core.NewTimer(g, tOpts)
		}
		if opts.Mode == ModeNetWeight {
			e.nwUp = netweight.NewUpdater(d, netweight.DefaultOptions())
		}
	}

	// Density work arrays over movable slots.
	for slot := 0; slot < nSlots; slot++ {
		if e.movable[slot] {
			e.dSlot = append(e.dSlot, int32(slot))
		}
	}
	e.dx = make([]float64, len(e.dSlot))
	e.dy = make([]float64, len(e.dSlot))
	e.dw = make([]float64, len(e.dSlot))
	e.dh = make([]float64, len(e.dSlot))
	e.dgx = make([]float64, len(e.dSlot))
	e.dgy = make([]float64, len(e.dSlot))
	e.wlGX = make([]float64, e.nReal)
	e.wlGY = make([]float64, e.nReal)
	for ci := 0; ci < e.nReal; ci++ {
		if e.movable[ci] {
			e.nMov++
		}
	}
	for k, slot := range e.dSlot {
		e.dw[k], e.dh[k] = e.w[slot], e.h[slot]
	}
	// Overflow arrays over movable real (non-filler) cells.
	for ci := range d.Cells {
		if e.movable[ci] { //dtgp:allow(indexspace) cell-id/slot-prefix embedding (see newEngine)
			e.mw = append(e.mw, e.w[ci]) //dtgp:allow(indexspace) cell-id/slot-prefix embedding
			e.mh = append(e.mh, e.h[ci]) //dtgp:allow(indexspace) cell-id/slot-prefix embedding
		}
	}
	e.mx = make([]float64, len(e.mw))
	e.my = make([]float64, len(e.mw))

	return e, nil
}

// writePositions pushes a position vector into the design (real cells).
//
//dtgp:hotpath
func (e *engine) writePositions(z []float64) {
	nSlots := e.nReal + e.nFill
	for ci := range e.d.Cells {
		if e.movable[ci] { //dtgp:allow(indexspace) cell-id/slot-prefix embedding (see newEngine)
			e.d.Cells[ci].Pos.X = z[ci]
			e.d.Cells[ci].Pos.Y = z[nSlots+ci]
		}
	}
}

// incrementalSTA returns the maintained exact-STA view of the design's
// current cell positions. After the first call, which builds the engine
// from scratch, it re-extracts every net and re-sweeps the whole late
// analysis, so its state is bit-identical to a from-scratch timing.Analyze
// at every call (deterministic re-extraction from identical coordinates),
// a supervisor rollback included.
//
//dtgp:hotpath
func (e *engine) incrementalSTA() *timing.Incremental {
	if e.staInc == nil {
		e.staInc = timing.NewIncremental(e.graph)
		return e.staInc
	}
	e.staInc.MoveCells(nil)
	return e.staInc
}

// clamp keeps every movable slot inside the die.
//
//dtgp:hotpath
func (e *engine) clamp(z []float64) {
	nSlots := e.nReal + e.nFill
	die := e.d.Die
	for slot := 0; slot < nSlots; slot++ {
		if !e.movable[slot] {
			continue
		}
		z[slot] = geom.Clamp(z[slot], die.Lo.X, die.Hi.X-e.w[slot])
		z[nSlots+slot] = geom.Clamp(z[nSlots+slot], die.Lo.Y, die.Hi.Y-e.h[slot])
	}
}

// gradient evaluates the full objective gradient at z into grad (same
// layout), returning the wirelength and density gradient L1 norms for λ
// calibration.
//
//dtgp:hotpath
func (e *engine) gradient(z, grad []float64, iter int) (wlNorm, dNorm float64) {
	nSlots := e.nReal + e.nFill
	e.writePositions(z)
	for i := range e.gradX {
		e.gradX[i] = 0
		e.gradY[i] = 0
	}

	// Wirelength (real cells only).
	wlGX, wlGY := e.wlGX, e.wlGY
	for ci := range wlGX {
		wlGX[ci] = 0
		wlGY[ci] = 0
	}
	e.wl.Evaluate(wlGX, wlGY)
	for ci := 0; ci < e.nReal; ci++ {
		e.gradX[ci] += wlGX[ci]
		e.gradY[ci] += wlGY[ci]
		wlNorm += math.Abs(wlGX[ci]) + math.Abs(wlGY[ci])
	}

	// Density (movable slots incl. fillers).
	for k, slot := range e.dSlot {
		e.dx[k] = z[slot]
		e.dy[k] = z[int(slot)+nSlots]
	}
	e.grid.BuildDensity(e.dx, e.dy, e.dw, e.dh)
	e.grid.Solve()
	dgx, dgy := e.dgx, e.dgy
	for k := range dgx {
		dgx[k] = 0
		dgy[k] = 0
	}
	e.grid.Gradient(e.dx, e.dy, e.dw, e.dh, dgx, dgy)
	for k, slot := range e.dSlot {
		dNorm += math.Abs(dgx[k]) + math.Abs(dgy[k])
		e.gradX[slot] += e.lambda * dgx[k]
		e.gradY[slot] += e.lambda * dgy[k]
	}

	// Differentiable timing (Eq. 6 third/fourth terms). The raw gradient
	// concentrates on the few cells of critical paths with magnitudes far
	// beyond the wirelength gradient, which destabilises the BB step; as
	// the paper notes, preconditioning of timing gradients is an open
	// problem (§5). We stabilise with per-component clipping and a
	// per-iteration renormalisation to a controlled, growing fraction of
	// the wirelength gradient norm.
	if e.timingActive && e.timer != nil {
		e.timer.Evaluate(e.opts.T1, e.opts.T2)
		meanWL := wlNorm / max(1, float64(2*e.nMov))
		clip := 50 * meanWL
		tNorm := 0.0
		for ci := 0; ci < e.nReal; ci++ {
			e.timer.CellGradX[ci] = geom.Clamp(e.timer.CellGradX[ci], -clip, clip)
			e.timer.CellGradY[ci] = geom.Clamp(e.timer.CellGradY[ci], -clip, clip)
			tNorm += math.Abs(e.timer.CellGradX[ci]) + math.Abs(e.timer.CellGradY[ci])
		}
		if tNorm > 0 {
			frac := min(e.opts.TimingScale*e.tGrow, 0.35)
			// Once every endpoint meets timing, back the pressure off
			// exponentially instead of re-amplifying a vanishing raw
			// gradient — otherwise the WNS term keeps trading wirelength
			// for slack that is no longer needed.
			if e.timer.EstWNS > 0 {
				frac *= math.Exp(-e.timer.EstWNS / e.opts.TimingGamma)
			}
			s := frac * wlNorm / tNorm
			for ci := 0; ci < e.nReal; ci++ {
				e.gradX[ci] += s * e.timer.CellGradX[ci]
				e.gradY[ci] += s * e.timer.CellGradY[ci]
			}
		}
	}

	// Zero fixed, precondition, pack.
	for slot := 0; slot < nSlots; slot++ {
		if !e.movable[slot] {
			grad[slot] = 0
			grad[nSlots+slot] = 0
			continue
		}
		pins := 0.0
		if slot < e.nReal {
			pins = float64(len(e.d.Cells[slot].Pins))
		}
		p := max(1, pins+e.lambda*e.w[slot]*e.h[slot]/(e.grid.BinW*e.grid.BinH))
		grad[slot] = e.gradX[slot] / p
		grad[nSlots+slot] = e.gradY[slot] / p
	}
	return wlNorm, dNorm
}

// overflow computes the density overflow of the real movable cells at z.
//
//dtgp:hotpath
func (e *engine) overflow(z []float64) float64 {
	nSlots := e.nReal + e.nFill
	k := 0
	for ci := 0; ci < e.nReal; ci++ {
		if e.movable[ci] {
			e.mx[k] = z[ci]
			e.my[k] = z[nSlots+ci]
			k++
		}
	}
	return e.grid.Overflow(e.mx, e.my, e.mw, e.mh)
}

// optState carries the optimizer loop state across iterations, so one
// iteration is a pure function of (engine, optState) that the supervisor
// can retry, roll back (guard.Checkpoint mirrors these fields), or replay
// serially for a diagnostic.
type optState struct {
	v, u, uPrev, g, gPrev, vPrev []float64
	a, alpha                     float64
	prevOv, bestOv               float64
	bestU                        []float64
	bestIter                     int
	lastOv                       float64
	stop                         bool

	// Recovery damping, applied by rollback only — all zero on a clean
	// run, so a healthy supervised trajectory is bit-identical to a bare
	// loop of steps. retries is the consumed rollback budget; it lives
	// here (not as a loop local) so checkpoints carry it across a process
	// restart.
	dampIters    int     // iterations the BB step stays damped
	dampFactor   float64 // multiplier on the BB step while damped
	freezeLambda int     // iterations λ growth stays frozen
	retries      int     // rollback budget consumed
	inDegraded   bool    // report bookkeeping: inside a degrading streak
}

func (e *engine) newOptState() *optState {
	n2 := 2 * (e.nReal + e.nFill)
	st := &optState{
		v:          append([]float64(nil), e.z...),
		u:          append([]float64(nil), e.z...),
		uPrev:      append([]float64(nil), e.z...),
		g:          make([]float64, n2),
		gPrev:      make([]float64, n2),
		vPrev:      make([]float64, n2),
		a:          1,
		alpha:      0,
		prevOv:     math.Inf(1),
		bestOv:     math.Inf(1),
		dampFactor: 1,
	}
	st.bestU = append([]float64(nil), st.u...)
	return st
}

// step executes one Nesterov/Barzilai–Borwein iteration. Any panic below it
// — including a kernel panic isolated into a *parallel.KernelPanicError by
// the worker pool — is recovered into err so the supervisor can roll back
// instead of crashing the run. quiet suppresses trace/log side effects
// (used by the serial diagnostic replay).
func (e *engine) step(st *optState, iter int, res *Result, quiet bool) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = guard.AsError(r)
		}
	}()
	opts := &e.opts
	n2 := len(st.u)

	// Net-weighting hook: exact STA on the current major iterate, served
	// by the maintained engine (its slacks equal a from-scratch
	// timing.Analyze bitwise).
	if e.nwUp != nil && e.timingActive {
		e.writePositions(st.u)
		e.nwUp.Update(e.d, e.incrementalSTA())
	}

	wlNorm, dNorm := e.gradient(st.v, st.g, iter)
	if e.faultHook != nil {
		e.faultHook(iter, st.g)
	}

	if iter == 0 {
		if dNorm > 0 {
			e.lambda = lambdaInitFactor * wlNorm / dNorm
		} else {
			e.lambda = lambdaInitFactor
		}
		// λ was zero during the first gradient eval; recompute with
		// the calibrated λ so the first step is balanced.
		wlNorm, dNorm = e.gradient(st.v, st.g, iter)
		maxG := 0.0
		for _, gi := range st.g {
			if m := math.Abs(gi); m > maxG {
				maxG = m
			}
		}
		if maxG > 0 {
			st.alpha = e.grid.BinW / maxG
		} else {
			st.alpha = 1
		}
	} else {
		// Barzilai–Borwein step length on the preconditioned system. A
		// non-finite num/den (one poisoned coordinate is enough) or a
		// non-finite resulting step keeps the previous step length
		// instead of propagating the poison into u and v.
		var num, den float64
		for i := 0; i < n2; i++ {
			dv := st.v[i] - st.vPrev[i]
			dg := st.g[i] - st.gPrev[i]
			num += dv * dv
			den += dg * dg
		}
		if num > 0 && den > 0 && !math.IsInf(num, 1) && !math.IsInf(den, 1) {
			if na := math.Sqrt(num / den); !math.IsNaN(na) && !math.IsInf(na, 0) {
				st.alpha = na
			}
		}
	}
	if st.dampIters > 0 {
		// Post-rollback damping: retry the diverged stretch with shrunk
		// steps so the same trajectory is not replayed into the same
		// blow-up.
		st.alpha *= st.dampFactor
		st.dampIters--
	}

	copy(st.vPrev, st.v)
	copy(st.gPrev, st.g)
	copy(st.uPrev, st.u)
	for i := 0; i < n2; i++ {
		st.u[i] = st.v[i] - st.alpha*st.g[i]
	}
	e.clamp(st.u)
	aNew := (1 + math.Sqrt(4*st.a*st.a+1)) / 2
	coef := (st.a - 1) / aNew
	for i := 0; i < n2; i++ {
		st.v[i] = st.u[i] + coef*(st.u[i]-st.uPrev[i])
	}
	e.clamp(st.v)
	st.a = aNew

	ov := e.overflow(st.u)
	res.Iterations = iter + 1
	st.lastOv = ov

	// Momentum restart when spreading regresses noticeably — Nesterov
	// momentum otherwise amplifies oscillations into divergence.
	if ov > st.prevOv+0.02 {
		st.a = 1
	}
	st.prevOv = ov
	if ov < st.bestOv-1e-4 {
		st.bestOv = ov
		copy(st.bestU, st.u)
		st.bestIter = iter
	}
	// Plateau rollback: no overflow progress for a long stretch during
	// the spreading phase means the run is oscillating; restore the
	// best iterate instead of grinding λ upward forever.
	if ov < 0.6 && iter-st.bestIter > 200 {
		copy(st.u, st.bestU)
		if !quiet {
			opts.Logf("[%v] plateau at iter %d; restoring best overflow %.3f (iter %d)",
				opts.Mode, iter, st.bestOv, st.bestIter)
		}
		st.stop = true
		return nil
	}

	// Timing activation (§4: from ~iteration 100, once spread).
	if !e.timingActive && opts.Mode != ModeWirelength &&
		(iter+1 >= opts.TimingStartIter || ov < opts.TimingStartOverflow) {
		e.timingActive = true
		if !quiet {
			opts.Logf("[%v] timing activated at iter %d (overflow %.3f)",
				opts.Mode, iter+1, ov)
		}
	}
	if e.timingActive && e.tGrow < 10 {
		// The timing term's share grows (§4 grows t1, t2 1% per
		// iteration); capped so late iterations cannot let it overwhelm
		// wirelength/density.
		e.tGrow *= opts.TimingGrowth
	}

	// Trace.
	if !quiet && opts.TracePeriod > 0 && iter%opts.TracePeriod == 0 {
		e.writePositions(st.u)
		tp := TracePoint{Iter: iter, HPWL: e.d.HPWL(), Overflow: ov}
		if opts.TraceTiming && e.graph != nil {
			sta := timing.Analyze(e.graph)
			tp.WNS, tp.TNS, tp.HasTiming = sta.WNS, sta.TNS, true
		}
		res.Trace = append(res.Trace, tp)
		opts.Logf("[%v] iter %4d HPWL %.4g overflow %.3f λ %.3g α %.3g",
			opts.Mode, iter, tp.HPWL, ov, e.lambda, st.alpha)
	}

	// Grow λ only while the density force is not yet dominant; past
	// that point further growth only destabilises the system. Frozen for
	// a stretch after a rollback (divergence damping).
	if st.freezeLambda > 0 {
		st.freezeLambda--
	} else if e.lambda*dNorm <= 20*wlNorm {
		e.lambda *= lambdaGrowth
	}

	if ov < opts.StopOverflow {
		st.stop = true
	}
	return nil
}

// observe assembles this iteration's health observation from read-only
// scans — it never perturbs the trajectory.
//
//dtgp:hotpath
func (e *engine) observe(mon *guard.Monitor, st *optState, iter int) (guard.Health, guard.Reason) {
	nfPos, _ := guard.ScanVec(st.u)
	nfGrad, gNorm := guard.ScanVec(st.g)
	nfTiming := 0
	if e.timingActive && e.timer != nil {
		nfTiming = e.timer.HealthScan()
	}
	return mon.Observe(guard.Obs{
		Iter:            iter,
		GradNorm:        gNorm,
		NonFinitePos:    nfPos,
		NonFiniteGrad:   nfGrad,
		NonFiniteTiming: nfTiming,
		Alpha:           st.alpha,
		Lambda:          e.lambda,
		Overflow:        st.lastOv,
	})
}

// checkpoint copies the resumable optimizer state into the ring's next
// slot. All destinations are preallocated — steady-state checkpointing
// does not allocate.
func (e *engine) checkpoint(ring *guard.Ring, st *optState, iter int) {
	cp := ring.Next()
	cp.Iter = iter
	copy(cp.U, st.u)
	copy(cp.V, st.v)
	copy(cp.VPrev, st.vPrev)
	copy(cp.GPrev, st.gPrev)
	cp.A, cp.Alpha = st.a, st.alpha
	cp.Lambda, cp.TGrow = e.lambda, e.tGrow
	cp.PrevOv, cp.Overflow = st.prevOv, st.lastOv
	cp.TimingActive = e.timingActive
	for ni := range e.d.Nets {
		cp.NetWeights[ni] = e.d.Nets[ni].Weight
	}
	if e.nwUp != nil {
		e.nwUp.SnapshotVelocity(cp.NetVelocity)
	}
	cp.Seed = e.opts.Seed
	copy(cp.BestU, st.bestU)
	cp.BestOv, cp.BestIter = st.bestOv, st.bestIter
	cp.DampIters, cp.DampFactor = st.dampIters, st.dampFactor
	cp.FreezeLambda, cp.Retries = st.freezeLambda, st.retries
	e.writePositions(st.u)
	cp.HPWL = e.d.HPWL()
	if e.timer != nil {
		cp.WNS = e.timer.EstWNS
	}
	ring.Commit()
}

// rollback restores the most recent checkpoint (consuming it, so repeated
// divergence walks further back) and applies damping: momentum reset, BB
// steps halved for a stretch, λ growth frozen. Returns nil when the ring
// is exhausted.
func (e *engine) rollback(ring *guard.Ring, st *optState) *guard.Checkpoint {
	cp := ring.Pop()
	if cp == nil {
		return nil
	}
	copy(st.u, cp.U)
	copy(st.uPrev, cp.U)
	copy(st.v, cp.V)
	copy(st.vPrev, cp.VPrev)
	copy(st.gPrev, cp.GPrev)
	st.a = 1 // reset momentum
	st.alpha = cp.Alpha
	st.prevOv = cp.PrevOv
	st.lastOv = cp.Overflow
	e.lambda = cp.Lambda
	e.tGrow = cp.TGrow
	e.timingActive = cp.TimingActive
	for ni := range e.d.Nets {
		e.d.Nets[ni].Weight = cp.NetWeights[ni]
	}
	if e.nwUp != nil {
		e.nwUp.RestoreVelocity(cp.NetVelocity)
	}
	st.dampFactor *= 0.5
	st.dampIters = 3 * checkpointPeriod
	st.freezeLambda = 3 * checkpointPeriod
	e.writePositions(st.u)
	return cp
}

// applyResume validates a durable checkpoint against this run and installs
// it as the optimizer state. Validation is strict: a checkpoint from a
// different design shape or RNG seed would silently produce a divergent
// (or corrupt) trajectory, so any mismatch is a typed guard.ErrMismatch.
//
// Unlike a divergence rollback — which deliberately resets momentum and
// damps the step — resume is an exact continuation: every scalar is
// restored bit-for-bit, including the Nesterov momentum coefficient.
func (e *engine) applyResume(cp *guard.Checkpoint, st *optState) error {
	n2 := len(st.u)
	if len(cp.U) != n2 || len(cp.V) != n2 || len(cp.VPrev) != n2 ||
		len(cp.GPrev) != n2 || len(cp.BestU) != n2 {
		return fmt.Errorf("%w: checkpoint has %d position DoF, this run has %d (design or filler layout changed)",
			guard.ErrMismatch, len(cp.U), n2)
	}
	if len(cp.NetWeights) != len(e.d.Nets) || len(cp.NetVelocity) != len(e.d.Nets) {
		return fmt.Errorf("%w: checkpoint has %d net weights, design has %d nets",
			guard.ErrMismatch, len(cp.NetWeights), len(e.d.Nets))
	}
	if cp.Seed != e.opts.Seed {
		return fmt.Errorf("%w: checkpoint seed %d, run seed %d (filler placement would differ)",
			guard.ErrMismatch, cp.Seed, e.opts.Seed)
	}
	copy(st.u, cp.U)
	copy(st.uPrev, cp.U)
	copy(st.v, cp.V)
	copy(st.vPrev, cp.VPrev)
	copy(st.gPrev, cp.GPrev)
	copy(st.bestU, cp.BestU)
	st.a, st.alpha = cp.A, cp.Alpha
	st.prevOv, st.lastOv = cp.PrevOv, cp.Overflow
	st.bestOv, st.bestIter = cp.BestOv, cp.BestIter
	st.dampIters, st.dampFactor = cp.DampIters, cp.DampFactor
	st.freezeLambda, st.retries = cp.FreezeLambda, cp.Retries
	e.lambda, e.tGrow = cp.Lambda, cp.TGrow
	e.timingActive = cp.TimingActive
	for ni := range e.d.Nets {
		e.d.Nets[ni].Weight = cp.NetWeights[ni]
	}
	if e.nwUp != nil {
		e.nwUp.RestoreVelocity(cp.NetVelocity)
	}
	e.writePositions(st.u)
	return nil
}

// stopRequested reports whether a deadline or external cancellation asked
// the run to halt, latching the external flag into stopFlag so parallel
// kernels observe it too.
func (e *engine) stopRequested() bool {
	if e.opts.Cancel != nil && e.opts.Cancel.Load() {
		e.stopFlag.Store(true)
	}
	return e.stopFlag.Load()
}

// haltCanceled is the graceful deadline/cancellation exit: surrender the
// best finite iterate, then durably persist it as a final checkpoint so a
// later resume can pick the run back up.
func (e *engine) haltCanceled(store *guard.Store, ring *guard.Ring, st *optState,
	rep *guard.Report, iter int) {
	rep.DeadlineExceeded = true
	e.surrender(st, rep, iter, guard.ReasonDeadline, "deadline exceeded")
	if store == nil {
		return
	}
	e.checkpoint(ring, st, iter)
	rep.CheckpointIter = iter
	if err := store.Save(ring.Latest()); err != nil {
		rep.Record(guard.Incident{
			Iter: iter, Health: guard.Degrading, Reason: guard.ReasonCheckpointIO,
			Action: "final checkpoint lost", Detail: err.Error(),
		})
	} else {
		rep.DurableIter = iter
	}
}

func (e *engine) optimize(res *Result) error {
	if e.opts.Logf == nil {
		e.opts.Logf = func(string, ...any) {}
	}
	e.tGrow = 1
	st := e.newOptState()

	mon := guard.NewMonitor()
	ring := guard.NewRing(ringSize, len(st.u), len(e.d.Nets))
	rep := &guard.Report{CheckpointIter: -1, DurableIter: -1, ResumedFrom: -1}
	res.Recovery = rep

	var store *guard.Store
	if e.opts.CheckpointDir != "" {
		var err error
		store, err = guard.NewStore(e.opts.CheckpointFS, e.opts.CheckpointDir, e.opts.CheckpointKeep)
		if err != nil {
			return err
		}
	}
	startIter := 0
	if cp := e.opts.Resume; cp != nil {
		if err := e.applyResume(cp, st); err != nil {
			return err
		}
		startIter = cp.Iter + 1
		rep.ResumedFrom = cp.Iter
		res.Iterations = startIter
		e.opts.Logf("[%v] resuming from checkpoint at iter %d", e.opts.Mode, cp.Iter)
	}
	if !e.opts.Deadline.IsZero() || e.opts.Cancel != nil {
		// Kernel submissions observe the flag at barrier boundaries;
		// deregistered before legalization and the final STA, which must
		// run to completion even on a canceled run.
		parallel.SetCancelFlag(&e.stopFlag)
		defer parallel.SetCancelFlag(nil)
		if !e.opts.Deadline.IsZero() {
			if !time.Now().Before(e.opts.Deadline) {
				e.stopFlag.Store(true)
			} else {
				dt := time.AfterFunc(time.Until(e.opts.Deadline), func() {
					e.stopFlag.Store(true)
				})
				defer dt.Stop()
			}
		}
	}

	for iter := startIter; iter < e.opts.MaxIters; iter++ {
		if e.stopRequested() {
			e.haltCanceled(store, ring, st, rep, iter)
			break
		}
		err := e.step(st, iter, res, false)
		if err != nil && errors.Is(err, parallel.ErrCanceled) {
			// Not a fault: a kernel barrier observed the stop flag
			// mid-iteration. The partial iteration is discarded by
			// surrendering to the best complete iterate.
			e.haltCanceled(store, ring, st, rep, iter)
			break
		}

		// A step error is an isolated kernel panic; otherwise the health
		// monitor classifies the iterate.
		health, reason := guard.Diverged, guard.ReasonKernelPanic
		if err == nil {
			health, reason = e.observe(mon, st, iter)
		}

		if health == guard.Diverged {
			detail := ""
			if err != nil {
				// Produce the deterministic diagnostic: re-run the
				// faulting iteration once with the pool forced serial.
				// State is about to be rolled back, so the replay's
				// mutations are harmless.
				detail = err.Error() + "\n" + guard.SerialDiagnostic(func() {
					if rerr := e.step(st, iter, res, true); rerr != nil {
						panic(rerr)
					}
				})
			}
			st.retries++
			if st.retries > retryBudget {
				e.surrender(st, rep, iter, reason, "retry budget exhausted")
				break
			}
			cp := e.rollback(ring, st)
			if cp == nil {
				e.surrender(st, rep, iter, reason, "no checkpoint to roll back to")
				break
			}
			mon.Reset()
			rep.Rollbacks++
			rep.Record(guard.Incident{
				Iter: iter, Health: guard.Diverged, Reason: reason,
				Action: fmt.Sprintf("rollback to iter %d (retry %d/%d, step damped ×%.3g)",
					cp.Iter, st.retries, retryBudget, st.dampFactor),
				Detail: detail,
			})
			e.opts.Logf("[%v] %s at iter %d; rollback to iter %d (retry %d/%d)",
				e.opts.Mode, reason, iter, cp.Iter, st.retries, retryBudget)
			continue
		}

		if health == guard.Degrading && !st.inDegraded {
			rep.Record(guard.Incident{
				Iter: iter, Health: health, Reason: reason,
				Action: "watching (a sustained streak escalates to rollback)",
			})
		}
		st.inDegraded = health == guard.Degrading

		if health == guard.Healthy && iter%checkpointPeriod == 0 {
			e.checkpoint(ring, st, iter)
			rep.CheckpointIter = iter
			if store != nil {
				if err := store.Save(ring.Latest()); err != nil {
					// Durability is lost but the trajectory is not: the
					// in-memory ring still holds the snapshot and the
					// re-anchor below runs regardless, so a run with
					// failing checkpoint I/O stays bit-identical to one
					// whose saves succeed.
					rep.Record(guard.Incident{
						Iter: iter, Health: guard.Degrading, Reason: guard.ReasonCheckpointIO,
						Action: "continuing without durability (in-memory ring intact)",
						Detail: err.Error(),
					})
				} else {
					rep.DurableIter = iter
				}
				if e.timer != nil {
					// Deterministic re-anchor at every durable-checkpoint
					// boundary: the next evaluation rebuilds the timer's
					// incremental state from current positions exactly as
					// a resumed run's fresh timer would, which is what
					// makes kill-at-k + resume bit-identical to this run.
					e.timer.Reanchor()
				}
			}
		}

		if st.stop {
			break
		}
	}

	// Final safeguard: a supervised run never hands back a non-finite
	// iterate, whatever path led here.
	if nf, _ := guard.ScanVec(st.u); nf > 0 {
		e.surrender(st, rep, res.Iterations, guard.ReasonNonFinitePos,
			"non-finite final iterate")
	}
	e.writePositions(st.u)
	return nil
}

// surrender restores the best-seen finite iterate and marks the run as
// gracefully degraded instead of erroring out.
func (e *engine) surrender(st *optState, rep *guard.Report, iter int, reason guard.Reason, why string) {
	copy(st.u, st.bestU)
	rep.Surrendered = true
	rep.Record(guard.Incident{
		Iter: iter, Health: guard.Diverged, Reason: reason,
		Action: fmt.Sprintf("%s; returning best finite iterate (iter %d, overflow %.3f)",
			why, st.bestIter, st.bestOv),
	})
	e.opts.Logf("[%v] %s at iter %d; returning best finite iterate from iter %d",
		e.opts.Mode, why, iter, st.bestIter)
}
