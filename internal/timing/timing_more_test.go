package timing

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"dtgp/internal/gen"
	"dtgp/internal/geom"
	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
	"dtgp/internal/parallel"
	"dtgp/internal/rctree"
	"dtgp/internal/sdc"
)

// chainDesign builds port → g1 → g2 → … → DFF with the given masters.
func chainDesign(t *testing.T, masters []string) (*netlist.Design, *sdc.Constraints, []int32) {
	t.Helper()
	lib := liberty.DefaultLibrary()
	b := netlist.NewBuilder("chain", lib)
	b.SetDie(geom.NewRect(0, 0, 1200, 600))
	b.AddRowsFilling()
	clk := b.AddInputPort("clk", geom.Point{X: 0, Y: 300})
	in0 := b.AddInputPort("in0", geom.Point{X: 0, Y: 96})
	nclk := b.AddNet("nclk")
	b.Connect(nclk, clk, "")

	prev := b.AddNet("n0")
	b.Connect(prev, in0, "")
	var cells []int32
	for i, m := range masters {
		ci := b.AddCell(names(i), m)
		cells = append(cells, ci)
		b.Connect(prev, ci, "A")
		next := b.AddNet(names(i) + "o")
		b.Connect(next, ci, "Z")
		prev = next
	}
	ff := b.AddCell("ff", "DFF_X1")
	b.Connect(nclk, ff, "CK")
	b.Connect(prev, ff, "D")
	qn := b.AddNet("qn")
	b.Connect(qn, ff, "Q")
	// Keep the output port adjacent to the register so the Q→out wire
	// never dominates the chain under test.
	out := b.AddOutputPort("out", geom.Point{X: 100*float64(len(masters)+2) + 30, Y: 96})
	b.Connect(qn, out, "")

	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for i, ci := range cells {
		d.Cells[ci].Pos = geom.Point{X: 100 + float64(i)*100, Y: 96}
	}
	d.Cells[d.CellByName("ff")].Pos = geom.Point{X: 100 + float64(len(cells))*100, Y: 96}

	con := sdc.New()
	con.ClockName, con.ClockPort, con.Period = "clk", "clk", 1e6
	con.InputSlew["in0"] = 30
	return d, con, cells
}

func names(i int) string { return "u" + string(rune('a'+i%26)) + string(rune('a'+i/26)) }

// TestUnatenessTransitionFlip: an inverter chain alternates the critical
// transition; through one inverter a rising input arrives as a falling
// output.
func TestUnatenessTransitionFlip(t *testing.T) {
	d, con, cells := chainDesign(t, []string{"INV_X1"})
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	inv := cells[0]
	lc := &d.Lib.Cells[d.Cells[inv].Lib]
	aPin := d.Cells[inv].Pins[lc.PinByName("A")]
	zPin := d.Cells[inv].Pins[lc.PinByName("Z")]
	// Input rise at t_a, fall at t_a (symmetric start). Output rise must
	// derive from input fall (negative unate): since our library makes
	// fall delays ~0.92× rise delays, AT(Z,fall) < AT(Z,rise).
	if !(r.ATLate[TIdx(zPin, Fall)] < r.ATLate[TIdx(zPin, Rise)]) {
		t.Errorf("INV output fall %v !< rise %v",
			r.ATLate[TIdx(zPin, Fall)], r.ATLate[TIdx(zPin, Rise)])
	}
	_ = aPin
}

// TestBufferChainDelayAccumulates: a longer chain has strictly larger
// arrival at the endpoint.
func TestBufferChainDelayAccumulates(t *testing.T) {
	short, conS, _ := chainDesign(t, []string{"BUF_X1", "BUF_X1"})
	long, conL, _ := chainDesign(t, []string{"BUF_X1", "BUF_X1", "BUF_X1", "BUF_X1", "BUF_X1"})
	gS, err := NewGraph(short, conS)
	if err != nil {
		t.Fatal(err)
	}
	gL, err := NewGraph(long, conL)
	if err != nil {
		t.Fatal(err)
	}
	rS, rL := Analyze(gS), Analyze(gL)
	dS := rS.CriticalDelay()
	dL := rL.CriticalDelay()
	if dL <= dS {
		t.Errorf("5-buffer chain (%v) not slower than 2-buffer chain (%v)", dL, dS)
	}
}

// TestDriveStrengthReducesDelay: replacing the driver of a heavily loaded
// net with a stronger cell must reduce the critical delay.
func TestDriveStrengthReducesDelay(t *testing.T) {
	weak, conW, _ := chainDesign(t, []string{"INV_X1", "INV_X1"})
	strong, conS, _ := chainDesign(t, []string{"INV_X4", "INV_X4"})
	gW, err := NewGraph(weak, conW)
	if err != nil {
		t.Fatal(err)
	}
	gS, err := NewGraph(strong, conS)
	if err != nil {
		t.Fatal(err)
	}
	if dW, dS := Analyze(gW).CriticalDelay(), Analyze(gS).CriticalDelay(); dS >= dW {
		t.Errorf("X4 chain (%v) not faster than X1 chain (%v)", dS, dW)
	}
}

// TestInputSlewAffectsDelay: a slower input transition increases the
// endpoint arrival (LUT slew axis).
func TestInputSlewAffectsDelay(t *testing.T) {
	d, con, _ := chainDesign(t, []string{"NAND2_X1"})
	// NAND2 has a dangling B input in this construction; connect it too.
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	d1 := Analyze(g).CriticalDelay()
	con.InputSlew["in0"] = 300
	g2, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	d2 := Analyze(g2).CriticalDelay()
	if d2 <= d1 {
		t.Errorf("slew 300 delay %v not larger than slew 30 delay %v", d2, d1)
	}
}

// TestPortLoadAffectsDelay: more load on an output port slows the path to
// it.
func TestPortLoadAffectsDelay(t *testing.T) {
	d, con, _ := chainDesign(t, []string{"BUF_X1"})
	con.Period = 1000
	con.PortLoad["out"] = 1
	g1, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r1 := Analyze(g1)
	con.PortLoad["out"] = 60
	g2, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r2 := Analyze(g2)
	// The Q→out path gets slower with load.
	if r2.CriticalDelay() <= r1.CriticalDelay() {
		// The D path may dominate; check the port endpoint specifically.
		var slack1, slack2 float64
		for ei := range g1.Endpoints {
			if g1.Endpoints[ei].Kind == EndPort {
				slack1 = r1.EndpointSetup[ei]
				slack2 = r2.EndpointSetup[ei]
			}
		}
		if slack2 >= slack1 {
			t.Errorf("port load increase did not reduce port slack: %v vs %v", slack2, slack1)
		}
	}
}

// TestPeriodMonotoneSlack (property): increasing the clock period increases
// every endpoint's setup slack by exactly the period delta.
func TestPeriodMonotoneSlack(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 300, 44))
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		delta := float64(raw%5000) + 1
		con.Period = 3000
		g1, err := NewGraph(d, con)
		if err != nil {
			return false
		}
		r1 := Analyze(g1)
		con.Period = 3000 + delta
		g2, err := NewGraph(d, con)
		if err != nil {
			return false
		}
		r2 := Analyze(g2)
		return math.Abs((r2.WNS-r1.WNS)-delta) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestTranslationInvariance: rigidly translating the whole design does not
// change timing (all delays depend on relative positions only).
func TestTranslationInvariance(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 300, 45))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r1 := Analyze(g)
	for ci := range d.Cells {
		d.Cells[ci].Pos.X += 137
		d.Cells[ci].Pos.Y += 59
	}
	r2 := Analyze(g)
	if math.Abs(r1.WNS-r2.WNS) > 1e-6 || math.Abs(r1.TNS-r2.TNS) > 1e-6 {
		t.Errorf("translation changed timing: %v/%v vs %v/%v", r1.WNS, r1.TNS, r2.WNS, r2.TNS)
	}
}

// TestNetStateRefreshMatchesRebuild: the §3.6 reuse path (the geometry
// slide, which distortionLimit = +Inf always takes) must produce the same
// Elmore results as a full rebuild when topology is still valid.
func TestNetStateRefreshMatchesRebuild(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 300, 46))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	nets := BuildNetStates(g)
	// Tiny perturbation: refresh in place.
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			d.Cells[ci].Pos.X += 0.25
		}
	}
	scratch := NewBuildScratch()
	d.FillPinPositions() // the per-net kernels read the column
	for ni := range d.Nets {
		RefreshNetStateLazy(g, nets, int32(ni), math.Inf(1), &scratch[0])
	}
	r1 := AnalyzeWithNets(g, nets)
	// Reference: full rebuild.
	r2 := Analyze(g)
	// Same topology (a rigid-ish shift): results must agree closely. The
	// topologies may legitimately differ for ties, so compare WNS loosely.
	if math.Abs(r1.WNS-r2.WNS) > 1.0 {
		t.Errorf("refresh WNS %v vs rebuild %v", r1.WNS, r2.WNS)
	}
}

// TestGraphLevelsPartitionPins: every pin appears in exactly one level.
func TestGraphLevelsPartitionPins(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 400, 47))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]int, len(d.Pins))
	for _, level := range g.Levels {
		for _, pid := range level {
			seen[pid]++
		}
	}
	for pi, n := range seen {
		if n != 1 {
			t.Fatalf("pin %d in %d levels", pi, n)
		}
	}
}

// TestSinkCapIncludesPortLoad: output ports present their SDC load to the
// driving net.
func TestSinkCapIncludesPortLoad(t *testing.T) {
	d, con, _ := chainDesign(t, []string{"BUF_X1"})
	con.PortLoad["out"] = 42
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	out := d.CellByName("out")
	pid := d.Cells[out].Pins[0]
	if g.SinkCap[pid] != 42 {
		t.Errorf("port sink cap = %v, want 42", g.SinkCap[pid])
	}
	nets := BuildNetStates(g)
	AnalyzeWithNets(g, nets)
	var rc rctree.Tree
	nets.RC(d.NetByName("qn"), &rc)
	if load := rc.Load[rc.Root]; load < 42 {
		t.Errorf("driver load %v does not include the port load", load)
	}
}

// TestDerateShiftsSlacks: a late derate > 1 worsens setup slack; an early
// derate < 1 worsens hold slack.
func TestDerateShiftsSlacks(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 300, 48))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	base := Analyze(g)
	base.AnalyzeHold()

	con.DerateLate = 1.1
	derated := Analyze(g)
	if derated.WNS >= base.WNS {
		t.Errorf("late derate 1.1 did not worsen WNS: %v vs %v", derated.WNS, base.WNS)
	}
	con.DerateLate = 1

	con.DerateEarly = 0.5
	holdDer := Analyze(g)
	holdDer.AnalyzeHold()
	if holdDer.WNSHold >= base.WNSHold {
		t.Errorf("early derate 0.5 did not worsen hold WNS: %v vs %v", holdDer.WNSHold, base.WNSHold)
	}
	con.DerateEarly = 1
}

// TestDerateRoundTripsThroughSDC.
func TestDerateRoundTripsThroughSDC(t *testing.T) {
	con, err := sdc.Parse("create_clock -name c -period 1000 [get_ports clk]\nset_timing_derate -early 0.93\nset_timing_derate -late 1.07\n")
	if err != nil {
		t.Fatal(err)
	}
	if con.DerateEarly != 0.93 || con.DerateLate != 1.07 {
		t.Fatalf("derates: %v / %v", con.DerateEarly, con.DerateLate)
	}
}

// TestBuildNetStatesAllocatesNoPerNetObjects: the exact engine's net
// states are a fixed set of columns, so building them allocates as many
// heap objects on a design four times larger, within a small constant
// (scratch growth). The build runs with the worker pool forced serial: a
// lane that parks between dispatches allocates in the runtime, as often as
// the schedule makes it wait.
func TestBuildNetStatesAllocatesNoPerNetObjects(t *testing.T) {
	graph := func(cells int) *Graph {
		d, con, err := gen.Generate(gen.DefaultParams("t", cells, 48))
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGraph(d, con)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	small, large := graph(2000), graph(8000)
	parallel.ForceSerial(true)
	defer parallel.ForceSerial(false)
	build := func(g *Graph) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		BuildNetStates(g)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	ns, nl := build(small), build(large)
	if nl > ns+64 || ns > nl+64 {
		t.Errorf("BuildNetStates allocates %d objects at %d nets and %d at %d nets",
			ns, len(small.D.Nets), nl, len(large.D.Nets))
	}
}
