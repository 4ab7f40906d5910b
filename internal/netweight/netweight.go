// Package netweight implements the momentum-based net-weighting baseline
// (the paper's comparator [24], DREAMPlace 4.0): an exact STA engine is
// invoked periodically, per-net criticalities are derived from the worst
// pin slack on each net, and net weights are updated multiplicatively with
// an exponential-moving-average (momentum) on the increment. The weighted
// wirelength objective (Eq. 4) then pulls critical nets shorter.
package netweight

import (
	"math"

	"dtgp/internal/netlist"
	"dtgp/internal/timing"
)

// momentum is β of the EMA on weight increments (DREAMPlace 4.0 uses
// ~0.5); exponent sharpens the criticality curve.
const momentum, exponent = 0.5, 2.0

// Options configure the weight updater.
type Options struct {
	// MaxIncrease is the largest multiplicative bump per update for the
	// most critical net (weight *= 1 + MaxIncrease·criticality^exponent).
	MaxIncrease float64 //dtgp:allow(unturned) TestWeightsCapAtMax raises it to hit the cap fast
	// MaxWeight caps net weights to avoid runaway.
	MaxWeight float64 //dtgp:allow(unturned) TestWeightsCapAtMax lowers it
}

// DefaultOptions mirrors the flavour of [24].
func DefaultOptions() Options {
	return Options{
		MaxIncrease: 0.03,
		MaxWeight:   10,
	}
}

// Updater maintains per-net momentum state across STA invocations.
type Updater struct {
	Opts Options
	// velocity is the EMA of each net's weight increment. It must track the
	// weight trajectory: only the reweight itself and a checkpoint restore
	// may move it.
	//dtgp:cached by=Update,RestoreVelocity
	velocity []float64 //dtgp:index domain=net
	// crit is the persistent criticality buffer of Update (CriticalityInto
	// target), so the steady-state reweight is allocation-free.
	crit []float64 //dtgp:index domain=net
	// Updates counts Update calls.
	Updates int
}

// NewUpdater builds an updater for a design.
func NewUpdater(d *netlist.Design, opts Options) *Updater {
	return &Updater{
		Opts:     opts,
		velocity: make([]float64, len(d.Nets)),
		crit:     make([]float64, len(d.Nets)),
	}
}

// SlackSource is the slack view CriticalityInto consumes: either a
// from-scratch timing.Result or the maintained state of a timing.Incremental
// engine. The two agree bitwise on identical interconnect state, so weight
// trajectories are independent of which backs the interface.
type SlackSource interface {
	// Graph returns the timing graph the slacks were computed over.
	Graph() *timing.Graph
	// WorstSlack returns the design WNS (min endpoint setup slack).
	WorstSlack() float64
	// PinSlack returns the late slack at (pin, transition), +Inf when the
	// pin carries no constrained arrival.
	PinSlack(pid int32, tr timing.Transition) float64
}

// CriticalityInto fills crit (len must equal #nets) with each net's
// criticality in [0,1] from exact STA results, returning it:
// c = clamp(−worstNetSlack/|WNS|, 0, 1), zero when the design has no
// violations. Updater.Update passes a persistent buffer so the periodic
// reweight allocates nothing once warm.
//
//dtgp:hotpath
//dtgp:index crit=net
func CriticalityInto(crit []float64, d *netlist.Design, res SlackSource) []float64 {
	for ni := range crit {
		crit[ni] = 0
	}
	wns := res.WorstSlack()
	if wns >= 0 {
		return crit
	}
	isClockNet := res.Graph().IsClockNet
	for ni := range d.Nets {
		// Clock nets are ideal (excluded from timing propagation): their
		// wirelength does not influence slack, so they get no weight.
		if isClockNet[ni] {
			continue
		}
		net := &d.Nets[ni]
		worst := math.Inf(1)
		for _, pid := range net.Pins {
			for tr := timing.Rise; tr <= timing.Fall; tr++ {
				if s := res.PinSlack(pid, tr); s < worst {
					worst = s
				}
			}
		}
		if math.IsInf(worst, 1) || worst >= 0 {
			continue
		}
		c := -worst / -wns
		if c > 1 {
			c = 1
		}
		crit[ni] = c
	}
	return crit
}

// Update recomputes net weights from an exact STA result: the
// weight-adaptation step driven by CriticalityInto.
func (u *Updater) Update(d *netlist.Design, res SlackSource) {
	crit := CriticalityInto(u.crit, d, res)
	o := u.Opts
	for ni := range d.Nets {
		inc := o.MaxIncrease * math.Pow(crit[ni], exponent)
		// Momentum: remember pressure on nets that were recently critical
		// so weights don't oscillate when a net drops off the critical
		// path for one update.
		u.velocity[ni] = momentum*u.velocity[ni] + (1-momentum)*inc
		w := d.Nets[ni].Weight * (1 + u.velocity[ni])
		if w > o.MaxWeight {
			w = o.MaxWeight
		}
		d.Nets[ni].Weight = w
	}
	u.Updates++
}

// SnapshotVelocity copies the per-net EMA state into dst (len ≥ #nets);
// used by the run supervisor's checkpoints so a rollback restores the
// net-weighting feedback loop along with the positions.
func (u *Updater) SnapshotVelocity(dst []float64) { copy(dst, u.velocity) }

// RestoreVelocity restores state captured by SnapshotVelocity.
func (u *Updater) RestoreVelocity(src []float64) { copy(u.velocity, src) }

// ResetWeights restores unit weights (used when reusing a design across
// flow runs).
func ResetWeights(d *netlist.Design) {
	for ni := range d.Nets {
		d.Nets[ni].Weight = 1
	}
}
