// Package lib is the unturned fixture's library.
package lib

import "fmt"

// Options configure Run. DefaultOptions builds them, so each exported
// field is a knob that some program must turn.
type Options struct {
	// Name is set from DefaultOptions's parameter: no finding.
	Name string
	// Guard is set by main's opts.Guard.Enabled: no finding.
	Guard Guard
	// Unset is set by DefaultOptions alone: a finding.
	Unset int
	// Scale is set by DefaultOptions and a normalisation: a finding.
	Scale float64
	// Kept is set by DefaultOptions alone too, but allowed: suppressed.
	//
	//dtgp:allow(unturned) kept for the fixture's suppression case
	Kept bool
	// Trailed is allowed by a trailing comment: suppressed. That comment
	// follows code, so it covers its own line only, and Next, set by
	// DefaultOptions alone on the line below, is a finding.
	Trailed bool //dtgp:allow(unturned) kept for the fixture's trailing-allow case
	Next    bool
}

// Guard is an options struct of its own: DefaultGuard builds it.
type Guard struct {
	// Enabled is set by main through a chained selector: no finding.
	Enabled bool
}

// DefaultGuard returns the guard DefaultOptions uses.
func DefaultGuard() Guard { return Guard{Enabled: true} }

// DefaultOptions returns the options of a run called name.
func DefaultOptions(name string) Options {
	return Options{Name: name, Guard: DefaultGuard(), Unset: 3, Scale: 1, Kept: true, Trailed: true, Next: true}
}

// Stats is no options struct: DefaultStats returns a pointer to it, so
// its unset field is no finding.
type Stats struct{ Runs int }

// DefaultStats returns empty statistics.
func DefaultStats() *Stats { return &Stats{} }

// normalize fills in a non-positive scale.
func (o *Options) normalize() {
	if o.Scale <= 0 {
		o.Scale = 1
	}
}

// Run renders the options.
func Run(o Options) string {
	o.normalize()
	return fmt.Sprintf("%s %v %d %g %v %v %v %d", o.Name, o.Guard.Enabled, o.Unset, o.Scale, o.Kept, o.Trailed, o.Next, DefaultStats().Runs)
}
