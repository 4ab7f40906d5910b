package gen

import (
	"testing"

	"dtgp/internal/netlist"
)

func TestGenerateSmall(t *testing.T) {
	d, con, err := Generate(DefaultParams("tiny", 300, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("generated design invalid: %v", err)
	}
	s := d.Stats()
	if s.Movable < 250 || s.Movable > 350 {
		t.Errorf("movable cells = %d, want ≈300", s.Movable)
	}
	if s.Sequential < 20 {
		t.Errorf("sequential cells = %d, too few", s.Sequential)
	}
	if con.Period <= 0 || con.ClockPort != "clk" {
		t.Errorf("constraints: %+v", con)
	}
	// All movable cells initially inside the die.
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Movable() && (c.Pos.X < d.Die.Lo.X || c.Pos.X+c.W > d.Die.Hi.X+1e-9 ||
			c.Pos.Y < d.Die.Lo.Y || c.Pos.Y+c.H > d.Die.Hi.Y+1e-9) {
			t.Fatalf("cell %s at %v outside die %v", c.Name, c.Pos, d.Die)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultParams("det", 500, 7)
	d1, _, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Cells) != len(d2.Cells) || len(d1.Nets) != len(d2.Nets) {
		t.Fatal("sizes differ between runs")
	}
	for i := range d1.Cells {
		if d1.Cells[i].Name != d2.Cells[i].Name || d1.Cells[i].Pos != d2.Cells[i].Pos {
			t.Fatalf("cell %d differs between runs", i)
		}
	}
	for i := range d1.Nets {
		if len(d1.Nets[i].Pins) != len(d2.Nets[i].Pins) {
			t.Fatalf("net %d differs between runs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	d1, _, _ := Generate(DefaultParams("a", 400, 1))
	d2, _, _ := Generate(DefaultParams("a", 400, 2))
	same := true
	for i := range d1.Nets {
		if i >= len(d2.Nets) || len(d1.Nets[i].Pins) != len(d2.Nets[i].Pins) {
			same = false
			break
		}
	}
	if same && len(d1.Nets) == len(d2.Nets) {
		// Connectivity identical across seeds would indicate a broken RNG
		// plumbing; positions at least must differ.
		diff := false
		for i := range d1.Cells {
			if d1.Cells[i].Pos != d2.Cells[i].Pos {
				diff = true
				break
			}
		}
		if !diff {
			t.Error("different seeds produced identical designs")
		}
	}
}

func TestNetDegreeDistribution(t *testing.T) {
	d, _, err := Generate(DefaultParams("deg", 2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.AvgNetDegree < 1.8 || s.AvgNetDegree > 4.5 {
		t.Errorf("average net degree %v outside realistic band [1.8, 4.5]", s.AvgNetDegree)
	}
	if s.MaxNetDegree < 10 {
		t.Errorf("max net degree %d — expected a high-fanout tail", s.MaxNetDegree)
	}
	// The clock net must reach every register.
	clk := d.NetByName("clknet")
	if clk < 0 {
		t.Fatal("no clock net")
	}
	if got := d.Nets[clk].Degree(); got != s.Sequential+1 {
		t.Errorf("clock net degree = %d, want %d", got, s.Sequential+1)
	}
	// Few dangling nets.
	dangling := 0
	for ni := range d.Nets {
		if d.Nets[ni].Degree() < 2 {
			dangling++
		}
	}
	if frac := float64(dangling) / float64(len(d.Nets)); frac > 0.05 {
		t.Errorf("%.1f%% dangling nets, want < 5%%", 100*frac)
	}
}

func TestUtilizationTarget(t *testing.T) {
	p := DefaultParams("util", 1000, 5)
	p.Utilization = 0.6
	d, _, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Utilization < 0.5 || s.Utilization > 0.7 {
		t.Errorf("utilization %v, want ≈0.6", s.Utilization)
	}
}

func TestPresets(t *testing.T) {
	if len(Presets) != 8 {
		t.Fatalf("want 8 presets, got %d", len(Presets))
	}
	if _, ok := PresetByName("superblue4"); !ok {
		t.Error("superblue4 missing")
	}
	if _, ok := PresetByName("nope"); ok {
		t.Error("bogus preset found")
	}
	names := PresetNames()
	if names[0] != "superblue1" || names[7] != "superblue18" {
		t.Errorf("preset order wrong: %v", names)
	}
	pp := Presets[0].Params(256)
	if pp.NumCells < 4000 || pp.NumCells > 5000 {
		t.Errorf("superblue1/256 cells = %d, want ≈4725", pp.NumCells)
	}
}

func TestPresetGenerateSmallScale(t *testing.T) {
	// Generate the smallest preset at extreme scale as a structural smoke
	// test of the whole suite path.
	pre, _ := PresetByName("superblue18")
	d, con, err := Generate(pre.Params(2048))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if con.Period <= 0 {
		t.Error("no period")
	}
	if d.Name != "superblue18" {
		t.Errorf("name = %q", d.Name)
	}
	_ = netlist.ClassSeq
}
