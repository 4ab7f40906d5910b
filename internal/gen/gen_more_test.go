package gen

import (
	"testing"

	"dtgp/internal/timing"
)

func TestGenerateTooSmallRejected(t *testing.T) {
	p := DefaultParams("x", 300, 1)
	p.NumCells = 2
	if _, _, err := Generate(p); err == nil {
		t.Error("2-cell design accepted")
	}
}

func TestPeriodOverride(t *testing.T) {
	p := DefaultParams("x", 300, 2)
	p.ClockPeriod = 12345
	_, con, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if con.Period != 12345 {
		t.Errorf("period = %v", con.Period)
	}
}

func TestLocalityWindowControlsDepth(t *testing.T) {
	// A small window creates long chains (deep logic); a huge window makes
	// shallow, wide logic.
	deep := DefaultParams("deep", 1500, 3)
	deep.LocalityWindow = 8
	shallow := DefaultParams("shallow", 1500, 3)
	shallow.LocalityWindow = 100000

	depthOf := func(p Params) int {
		d, con, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		g, err := timing.NewGraph(d, con)
		if err != nil {
			t.Fatal(err)
		}
		return g.MaxLevel()
	}
	dd, ds := depthOf(deep), depthOf(shallow)
	if dd <= ds {
		t.Errorf("window 8 depth %d not deeper than window ∞ depth %d", dd, ds)
	}
}

func TestSequentialFraction(t *testing.T) {
	p := DefaultParams("sf", 1000, 4)
	p.SeqFraction = 0.3
	d, _, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	frac := float64(s.Sequential) / float64(s.Movable)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("sequential fraction %v, want ≈0.3", frac)
	}
}

func TestIOCounts(t *testing.T) {
	p := DefaultParams("io", 500, 5)
	p.NumInputs = 13
	p.NumOutputs = 9
	d, con, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Ports != 13+9+1 { // + clock
		t.Errorf("ports = %d, want 23", s.Ports)
	}
	if len(con.InputDelay) != 13 || len(con.OutputDelay) != 9 {
		t.Errorf("SDC IO constraints: %d/%d", len(con.InputDelay), len(con.OutputDelay))
	}
}

func TestGeneratedDesignIsAnalyzable(t *testing.T) {
	// Every preset at extreme scale builds a valid timing graph with a
	// constrained WNS.
	for _, pre := range Presets {
		d, con, err := Generate(pre.Params(4096))
		if err != nil {
			t.Fatalf("%s: %v", pre.Name, err)
		}
		g, err := timing.NewGraph(d, con)
		if err != nil {
			t.Fatalf("%s: %v", pre.Name, err)
		}
		r := timing.Analyze(g)
		if len(g.Endpoints) == 0 || r.WNS == 0 && r.TNS == 0 && g.MaxLevel() < 3 {
			t.Errorf("%s: degenerate timing result", pre.Name)
		}
	}
}

// TestTimingGraphIsDeep: the timing graph is deep (§3.1). Scaled designs are
// shallower than the paper's >300 levels but must still be clearly
// multi-level.
func TestTimingGraphIsDeep(t *testing.T) {
	pre, _ := PresetByName("superblue4")
	d, con, err := Generate(pre.Params(2048))
	if err != nil {
		t.Fatal(err)
	}
	g, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	if depth := g.MaxLevel(); depth < 20 {
		t.Errorf("graph depth %d suspiciously shallow", depth)
	}
}

func TestPortsOnBoundary(t *testing.T) {
	d, _, err := Generate(DefaultParams("b", 400, 6))
	if err != nil {
		t.Fatal(err)
	}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Class.String() != "port" {
			continue
		}
		onEdge := c.Pos.X == d.Die.Lo.X || c.Pos.Y == d.Die.Lo.Y ||
			c.Pos.X == d.Die.Hi.X || c.Pos.Y == d.Die.Hi.Y
		if !onEdge {
			t.Errorf("port %s at %v not on the die boundary %v", c.Name, c.Pos, d.Die)
		}
	}
}
