// Package dtgp is a pure-Go reproduction of "Differentiable-Timing-Driven
// Global Placement" (Guo & Lin, DAC 2022): a differentiable static-timing
// engine that backpropagates smoothed TNS/WNS objectives through NLDM cell
// arcs, Elmore interconnect and Steiner-tree geometry down to cell-location
// gradients, embedded in an ePlace/DREAMPlace-style analytical global
// placer, together with the two baselines the paper compares against.
//
// The package is a thin facade over the internal packages; see DESIGN.md
// for the system inventory and EXPERIMENTS.md for the reproduced
// evaluation.
//
// Typical use:
//
//	d, con, _ := dtgp.GenerateBenchmark("superblue4", 256)
//	res, _ := dtgp.Place(d, con, dtgp.FlowDiffTiming, nil)
//	fmt.Println(res.WNS, res.TNS, res.HPWL)
package dtgp

import (
	"fmt"
	"io"

	"dtgp/internal/bookshelf"
	"dtgp/internal/core"
	"dtgp/internal/defio"
	"dtgp/internal/gen"
	"dtgp/internal/guard"
	"dtgp/internal/legalize"
	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
	"dtgp/internal/place"
	"dtgp/internal/sdc"
	"dtgp/internal/timing"
	"dtgp/internal/viz"
)

// Re-exported core types. The internal packages stay authoritative; these
// aliases make the public API self-contained.
type (
	// Design is a bound, placed netlist.
	Design = netlist.Design
	// Constraints is the SDC timing environment.
	Constraints = sdc.Constraints
	// Library is a Liberty standard-cell library.
	Library = liberty.Library
	// PlaceOptions configures a placement run.
	PlaceOptions = place.Options
	// PlaceResult reports a placement run.
	PlaceResult = place.Result
	// TimingResult is a full exact STA snapshot.
	TimingResult = timing.Result
	// TimingGraph is the static timing structure of a design.
	TimingGraph = timing.Graph
	// DiffTimer is the differentiable timing engine (the paper's
	// contribution).
	DiffTimer = core.Timer
	// DiffTimerOptions configures the differentiable timer.
	DiffTimerOptions = core.Options
	// LegalizeResult reports legalization quality.
	LegalizeResult = legalize.Result
	// Checkpoint is one durable optimizer snapshot (see CheckpointStore).
	Checkpoint = guard.Checkpoint
	// CheckpointStore is the crash-consistent durable checkpoint store a
	// supervised run persists into (PlaceOptions.CheckpointDir) and a
	// resumed run loads from (PlaceOptions.Resume).
	CheckpointStore = guard.Store
)

// Typed checkpoint/resume errors, for exit-code mapping in callers: resume
// failures (corrupt or missing checkpoints, mismatched designs) are a
// distinct category from placement failures and must never silently fall
// back to a cold start.
var (
	// ErrNoCheckpoint: the checkpoint directory holds no committed snapshot.
	ErrNoCheckpoint = guard.ErrNoCheckpoint
	// ErrCheckpointCorrupt: CRC mismatch or structural damage.
	ErrCheckpointCorrupt = guard.ErrCorrupt
	// ErrCheckpointTruncated: the file ends before its declared structure.
	ErrCheckpointTruncated = guard.ErrTruncated
	// ErrCheckpointVersionSkew: written by a different format version.
	ErrCheckpointVersionSkew = guard.ErrVersionSkew
	// ErrCheckpointMismatch: the snapshot belongs to a different run
	// (design shape or seed).
	ErrCheckpointMismatch = guard.ErrMismatch
)

// OpenCheckpointStore opens (creating if needed) a durable checkpoint
// directory with the given retention (keep <= 0 retains everything).
func OpenCheckpointStore(dir string, keep int) (*CheckpointStore, error) {
	return guard.NewStore(guard.OSFS, dir, keep)
}

// Flow selects a placement flavour (Table 3 columns).
type Flow = place.Mode

// Flows.
const (
	// FlowWirelength is wirelength-driven placement (DREAMPlace [16]).
	FlowWirelength = place.ModeWirelength
	// FlowNetWeight is the momentum-based net-weighting baseline ([24]).
	FlowNetWeight = place.ModeNetWeight
	// FlowDiffTiming is the paper's differentiable-timing-driven flow.
	FlowDiffTiming = place.ModeDiffTiming
)

// GenerateBenchmark synthesises a scaled superblue-like benchmark by preset
// name ("superblue1" … "superblue18"); scale ≥ 1 divides the paper's cell
// count (256 ⇒ superblue1 ≈ 4.7k cells). Paper-scale aliases
// ("superblue-0.8M", "superblue-1.9M") generate the named size regardless
// of scale.
func GenerateBenchmark(preset string, scale int) (*Design, *Constraints, error) {
	p, sc, ok := gen.ResolvePresetSpec(preset, scale)
	if !ok {
		return nil, nil, fmt.Errorf("dtgp: unknown preset %q (have %v and aliases %v)",
			preset, gen.PresetNames(), gen.PaperScaleAliasNames())
	}
	if sc < 1 {
		return nil, nil, fmt.Errorf("dtgp: scale %d for preset %q: the divisor must be at least 1", scale, preset)
	}
	return gen.Generate(p.Params(sc))
}

// GenerateCustom synthesises a benchmark from explicit parameters.
func GenerateCustom(name string, cells int, seed int64) (*Design, *Constraints, error) {
	return gen.Generate(gen.DefaultParams(name, cells, seed))
}

// DefaultLibrary returns the synthetic Liberty library used by generated
// benchmarks.
func DefaultLibrary() *Library {
	return liberty.DefaultLibrary()
}

// Place runs global placement (+legalization) on the design in-place.
// opts == nil uses the defaults for the flow.
func Place(d *Design, con *Constraints, flow Flow, opts *PlaceOptions) (*PlaceResult, error) {
	o := place.DefaultOptions(flow)
	if opts != nil {
		o = *opts
		o.Mode = flow
	}
	return place.Run(d, con, o)
}

// DefaultPlaceOptions exposes the tuned defaults for a flow.
func DefaultPlaceOptions(flow Flow) PlaceOptions { return place.DefaultOptions(flow) }

// AnalyzeTiming runs exact static timing analysis on the design as placed:
// setup and hold.
func AnalyzeTiming(d *Design, con *Constraints) (*TimingResult, error) {
	g, err := timing.NewGraph(d, con)
	if err != nil {
		return nil, err
	}
	res := timing.Analyze(g)
	res.AnalyzeHold()
	return res, nil
}

// NewTimingGraph builds the (placement-independent) timing graph.
func NewTimingGraph(d *Design, con *Constraints) (*TimingGraph, error) {
	return timing.NewGraph(d, con)
}

// NewDiffTimer builds the differentiable timing engine over a design. Use
// Timer.Evaluate(t1, t2) to obtain the smoothed objective and per-cell
// gradients in Timer.CellGradX/CellGradY.
func NewDiffTimer(g *TimingGraph, opts *DiffTimerOptions) *DiffTimer {
	o := core.DefaultOptions()
	if opts != nil {
		o = *opts
	}
	return core.NewTimer(g, o)
}

// CalibratePeriod sets con.Period to factor × the critical delay of the
// design at its current placement — a tight-but-achievable constraint.
// The provisional period in con is used to time the design first.
func CalibratePeriod(d *Design, con *Constraints, factor float64) error {
	if con.Period <= 0 {
		con.Period = 1e9
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		return err
	}
	con.Period = factor * timing.Analyze(g).CriticalDelay()
	return nil
}

// CheckLegal reports the first legality violation, or nil.
func CheckLegal(d *Design) error { return legalize.Check(d) }

// SaveBenchmark writes the full ICCAD-2015-style file set
// (.aux/.nodes/.nets/.pl/.scl/.wts/.v/.lib/.sdc) into dir with base name.
func SaveBenchmark(dir, base string, d *Design, con *Constraints) error {
	return bookshelf.Save(dir, base, d, con)
}

// LoadBenchmark reads a saved benchmark back.
func LoadBenchmark(dir, base string) (*Design, *Constraints, error) {
	return bookshelf.Load(dir, base)
}

// WriteTimingReport renders the k worst paths of an exact STA result.
func WriteTimingReport(w io.Writer, res *TimingResult, k int) error {
	_, err := io.WriteString(w, res.Report(k))
	return err
}

// WriteDEF writes the placed design in the DEF 5.8 subset the paper's
// evaluation used.
func WriteDEF(w io.Writer, d *Design) error { return defio.Write(w, d) }

// WritePlacementSVG renders the placement as SVG, optionally coloured by
// slack (pass the result of AnalyzeTiming) and with flylines for small
// nets.
func WritePlacementSVG(w io.Writer, d *Design, sta *TimingResult) error {
	return viz.WritePlacementSVG(w, d, viz.PlacementOptions{Timing: sta})
}

// WriteTraceSVG renders two placement traces as Fig. 8-style curve panels.
func WriteTraceSVG(w io.Writer, a, b []place.TracePoint, nameA, nameB, title string) error {
	return viz.WriteTraceSVG(w, a, b, nameA, nameB, viz.CurveOptions{Title: title})
}
