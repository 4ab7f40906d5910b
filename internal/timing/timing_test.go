package timing

import (
	"math"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/geom"
	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
	"dtgp/internal/sdc"
)

// toyDesign: in0 → g0(INV) → ff0(DFF) → out0, with a clock port.
func toyDesign(t *testing.T) (*netlist.Design, *sdc.Constraints) {
	t.Helper()
	lib := liberty.DefaultLibrary(liberty.DefaultSynthParams())
	b := netlist.NewBuilder("toy", lib)
	b.SetDie(geom.NewRect(0, 0, 600, 600))
	b.AddRowsFilling()
	clk := b.AddInputPort("clk", geom.Point{X: 0, Y: 300})
	in0 := b.AddInputPort("in0", geom.Point{X: 0, Y: 96})
	out0 := b.AddOutputPort("out0", geom.Point{X: 600, Y: 96})
	g0 := b.AddCell("g0", "INV_X1")
	ff0 := b.AddCell("ff0", "DFF_X1")

	nclk := b.AddNet("nclk")
	b.Connect(nclk, clk, "")
	b.Connect(nclk, ff0, "CK")
	nin := b.AddNet("nin")
	b.Connect(nin, in0, "")
	b.Connect(nin, g0, "A")
	nmid := b.AddNet("nmid")
	b.Connect(nmid, g0, "Z")
	b.Connect(nmid, ff0, "D")
	nout := b.AddNet("nout")
	b.Connect(nout, ff0, "Q")
	b.Connect(nout, out0, "")

	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d.Cells[d.CellByName("g0")].Pos = geom.Point{X: 200, Y: 96}
	d.Cells[d.CellByName("ff0")].Pos = geom.Point{X: 400, Y: 96}

	con := sdc.New()
	con.ClockName, con.ClockPort = "clk", "clk"
	con.Period = 500
	con.ClockSlew = 20
	con.InputDelay["in0"] = 50
	con.InputSlew["in0"] = 30
	con.OutputDelay["out0"] = 40
	con.PortLoad["out0"] = 3
	return d, con
}

func TestGraphStructure(t *testing.T) {
	d, con := toyDesign(t)
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	// Clock net excluded.
	if !g.IsClockNet[d.NetByName("nclk")] {
		t.Error("clock net not marked")
	}
	// Endpoints: ff0/D (setup+hold) and out0.
	if len(g.Endpoints) != 2 {
		t.Fatalf("endpoints = %d, want 2", len(g.Endpoints))
	}
	var ffEp, portEp *Endpoint
	for i := range g.Endpoints {
		switch g.Endpoints[i].Kind {
		case EndFFData:
			ffEp = &g.Endpoints[i]
		case EndPort:
			portEp = &g.Endpoints[i]
		}
	}
	if ffEp == nil || ffEp.Setup == nil || ffEp.Hold == nil {
		t.Fatal("FF endpoint incomplete")
	}
	if portEp == nil || portEp.PortName != "out0" {
		t.Fatal("port endpoint missing")
	}
	// Levels: every arc goes up in level.
	for pi := range g.ArcsInto {
		for _, ar := range g.ArcsInto[pi] {
			if g.Level[ar.FromPin] >= g.Level[pi] {
				t.Errorf("arc %d→%d does not increase level", ar.FromPin, pi)
			}
		}
	}
	if g.MaxLevel() < 3 {
		t.Errorf("MaxLevel = %d, want ≥ 3", g.MaxLevel())
	}
}

func TestGraphRejectsMixedClockNet(t *testing.T) {
	lib := liberty.DefaultLibrary(liberty.DefaultSynthParams())
	b := netlist.NewBuilder("bad", lib)
	b.SetDie(geom.NewRect(0, 0, 200, 200))
	clk := b.AddInputPort("clk", geom.Point{})
	ff := b.AddCell("ff", "DFF_X1")
	g0 := b.AddCell("g0", "INV_X1")
	n := b.AddNet("n")
	b.Connect(n, clk, "")
	b.Connect(n, ff, "CK")
	b.Connect(n, g0, "A") // data sink on the clock net
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGraph(d, nil); err == nil {
		t.Error("mixed clock/data net accepted")
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	lib := liberty.DefaultLibrary(liberty.DefaultSynthParams())
	b := netlist.NewBuilder("loop", lib)
	b.SetDie(geom.NewRect(0, 0, 200, 200))
	g1 := b.AddCell("g1", "INV_X1")
	g2 := b.AddCell("g2", "INV_X1")
	n1 := b.AddNet("n1")
	b.Connect(n1, g1, "Z")
	b.Connect(n1, g2, "A")
	n2 := b.AddNet("n2")
	b.Connect(n2, g2, "Z")
	b.Connect(n2, g1, "A")
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGraph(d, nil); err == nil {
		t.Error("combinational loop not detected")
	}
}

// TestToyArrivalComposition rebuilds the expected arrival at the FF data pin
// from independently composed pieces (RC trees + LUT evals) and compares
// with the engine.
func TestToyArrivalComposition(t *testing.T) {
	d, con := toyDesign(t)
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)

	gi := d.CellByName("g0")
	lc := &d.Lib.Cells[d.Cells[gi].Lib]
	aPin := d.Cells[gi].Pins[lc.PinByName("A")]
	zPin := d.Cells[gi].Pins[lc.PinByName("Z")]
	ffi := d.CellByName("ff0")
	flc := &d.Lib.Cells[d.Cells[ffi].Lib]
	dPin := d.Cells[ffi].Pins[flc.PinByName("D")]

	// Net in0→A.
	nin := d.NetByName("nin")
	nsIn := &r.Nets[nin]
	posA := -1
	for k, pid := range d.Nets[nin].Pins {
		if pid == aPin {
			posA = k
		}
	}
	atA := con.InputDelay["in0"] + nsIn.RC.Delay[posA]
	slewA := math.Sqrt(con.InputSlew["in0"]*con.InputSlew["in0"] +
		nsIn.RC.Impulse[posA]*nsIn.RC.Impulse[posA])
	if got := r.ATLate[TIdx(aPin, Rise)]; math.Abs(got-atA) > 1e-9 {
		t.Errorf("AT(A,rise) = %v, want %v", got, atA)
	}
	if got := r.SlewLate[TIdx(aPin, Rise)]; math.Abs(got-slewA) > 1e-9 {
		t.Errorf("Slew(A,rise) = %v, want %v", got, slewA)
	}

	// Cell arc A→Z, negative unate: Z rise comes from A fall.
	nmid := d.NetByName("nmid")
	load := r.Nets[nmid].RC.Load[r.Nets[nmid].RC.Root]
	var arcAZ *liberty.TimingArc
	for ai := range lc.Arcs {
		arcAZ = &lc.Arcs[ai]
	}
	atZrise := atA + arcAZ.CellRise.Eval(slewA, load) // slew(A,fall) == slew(A,rise) here
	if got := r.ATLate[TIdx(zPin, Rise)]; math.Abs(got-atZrise) > 1e-9 {
		t.Errorf("AT(Z,rise) = %v, want %v", got, atZrise)
	}

	// Net Z→D.
	nsMid := &r.Nets[nmid]
	posD := -1
	for k, pid := range d.Nets[nmid].Pins {
		if pid == dPin {
			posD = k
		}
	}
	atD := atZrise + nsMid.RC.Delay[posD]
	if got := r.ATLate[TIdx(dPin, Rise)]; math.Abs(got-atD) > 1e-9 {
		t.Errorf("AT(D,rise) = %v, want %v", got, atD)
	}

	// Endpoint slack: T − setup(clkSlew, slewD) − AT.
	slewD := r.SlewLate[TIdx(dPin, Rise)]
	var ffEp *Endpoint
	for i := range g.Endpoints {
		if g.Endpoints[i].Kind == EndFFData {
			ffEp = &g.Endpoints[i]
		}
	}
	wantSlackRise := con.Period - ffEp.Setup.Arc.RiseConstraint.Eval(con.ClockSlew, slewD) - atD
	// Fall may be worse; endpoint slack is the min.
	if got := r.PinSlack(dPin, Rise); math.Abs(got-wantSlackRise) > 1e-9 {
		t.Errorf("slack(D,rise) = %v, want %v", got, wantSlackRise)
	}
}

func TestQOutputTimedFromClock(t *testing.T) {
	d, con := toyDesign(t)
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	ffi := d.CellByName("ff0")
	flc := &d.Lib.Cells[d.Cells[ffi].Lib]
	ckPin := d.Cells[ffi].Pins[flc.PinByName("CK")]
	qPin := d.Cells[ffi].Pins[flc.PinByName("Q")]
	// Ideal clock: AT(CK) = 0.
	if got := r.ATLate[TIdx(ckPin, Rise)]; got != 0 {
		t.Errorf("AT(CK) = %v, want 0", got)
	}
	// Q is timed and later than CK.
	if !r.Valid[TIdx(qPin, Rise)] || r.ATLate[TIdx(qPin, Rise)] <= 0 {
		t.Errorf("AT(Q) = %v, want > 0", r.ATLate[TIdx(qPin, Rise)])
	}
	// The out0 endpoint slack accounts for the Q→out path.
	for ei := range g.Endpoints {
		if g.Endpoints[ei].Kind == EndPort {
			if math.IsInf(r.EndpointSetup[ei], 1) {
				t.Error("port endpoint not constrained")
			}
		}
	}
}

func TestWNSTNSConsistency(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 600, 11))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	wns, tns := math.Inf(1), 0.0
	for _, s := range r.EndpointSetup {
		if math.IsInf(s, 1) {
			continue
		}
		if s < wns {
			wns = s
		}
		if s < 0 {
			tns += s
		}
	}
	if math.Abs(wns-r.WNS) > 1e-9 || math.Abs(tns-r.TNS) > 1e-9 {
		t.Errorf("WNS/TNS mismatch: %v/%v vs %v/%v", r.WNS, r.TNS, wns, tns)
	}
	if r.TNS > 0 {
		t.Error("TNS must be non-positive")
	}
	if r.WNS < 0 && r.TNS > r.WNS {
		t.Error("TNS cannot be better than WNS when violations exist")
	}
}

func TestWorstPathTrace(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 600, 12))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	p := r.WorstPath()
	if len(p.Steps) < 2 {
		t.Fatalf("worst path has %d steps", len(p.Steps))
	}
	if math.Abs(p.Slack-r.WNS) > 1e-9 {
		t.Errorf("worst path slack %v != WNS %v", p.Slack, r.WNS)
	}
	// Arrival must be non-decreasing and increments must compose.
	for i := 1; i < len(p.Steps); i++ {
		prev, cur := p.Steps[i-1], p.Steps[i]
		if cur.AT+1e-9 < prev.AT {
			t.Fatalf("AT decreases along path at step %d", i)
		}
		if math.Abs((prev.AT+cur.Incr)-cur.AT) > 1e-6 {
			t.Fatalf("step %d: %v + %v != %v", i, prev.AT, cur.Incr, cur.AT)
		}
	}
	// Path starts at a start pin.
	first := p.Steps[0].Pin
	if !g.IsStart[first] {
		t.Errorf("path starts at non-start pin %s", d.PinName(first))
	}
}

func TestStretchedPlacementWorsensTiming(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 400, 13))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r1 := Analyze(g)

	// Scale all movable positions 5× about the origin (well outside the
	// die; STA doesn't care) — longer wires must hurt WNS.
	for ci := range d.Cells {
		if d.Cells[ci].Movable() {
			d.Cells[ci].Pos.X *= 5
			d.Cells[ci].Pos.Y *= 5
		}
	}
	r2 := Analyze(g)
	if r2.WNS >= r1.WNS {
		t.Errorf("stretching improved WNS: %v → %v", r1.WNS, r2.WNS)
	}
	if r2.TNS >= r1.TNS {
		t.Errorf("stretching improved TNS: %v → %v", r1.TNS, r2.TNS)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 500, 14))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r1 := Analyze(g)
	r2 := Analyze(g)
	if r1.WNS != r2.WNS || r1.TNS != r2.TNS {
		t.Errorf("nondeterministic: %v/%v vs %v/%v", r1.WNS, r1.TNS, r2.WNS, r2.TNS)
	}
	for i := range r1.ATLate {
		if r1.ATLate[i] != r2.ATLate[i] {
			t.Fatalf("ATLate[%d] differs", i)
		}
	}
}

func TestHoldSlacksFinite(t *testing.T) {
	d, con := toyDesign(t)
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	found := false
	for ei := range g.Endpoints {
		if g.Endpoints[ei].Kind == EndFFData {
			if math.IsInf(r.EndpointHold[ei], 0) {
				t.Error("FF hold slack infinite")
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no FF endpoint")
	}
}

func TestEarlyNotAfterLate(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 500, 15))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	for i := range r.ATLate {
		if !r.Valid[i] {
			continue
		}
		if r.ATEarly[i] > r.ATLate[i]+1e-9 {
			t.Fatalf("ATEarly[%d] %v > ATLate %v", i, r.ATEarly[i], r.ATLate[i])
		}
		if r.SlewEarly[i] > r.SlewLate[i]+1e-9 {
			t.Fatalf("SlewEarly[%d] %v > SlewLate %v", i, r.SlewEarly[i], r.SlewLate[i])
		}
	}
}

func TestRATSlackOnWorstPath(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("t", 500, 16))
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	p := r.WorstPath()
	if len(p.Steps) == 0 {
		t.Skip("no constrained path")
	}
	// Every pin on the worst path has pin slack ≤ slightly above WNS (the
	// worst path is the binding constraint at each of its pins).
	for _, st := range p.Steps[1:] {
		ti := TIdx(st.Pin, st.Transition)
		if math.IsInf(r.RATLate[ti], 1) {
			t.Fatalf("no RAT on worst-path pin %s", d.PinName(st.Pin))
		}
		slack := r.RATLate[ti] - r.ATLate[ti]
		if slack > r.WNS+1e-6 {
			t.Errorf("worst-path pin %s slack %v > WNS %v", d.PinName(st.Pin), slack, r.WNS)
		}
	}
}

func TestSlackHistogram(t *testing.T) {
	d, con := toyDesign(t)
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	h := r.SlackHistogram([]float64{-100, 0, 100})
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 2 {
		t.Errorf("histogram total = %d, want 2 endpoints", total)
	}
}

func TestReportRenders(t *testing.T) {
	d, con := toyDesign(t)
	g, err := NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(g)
	rep := r.Report(2)
	for _, want := range []string{"WNS", "TNS", "Path 1", "ff0/D"} {
		if !containsStr(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
