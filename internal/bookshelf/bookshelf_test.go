package bookshelf

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/timing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("rt", 400, 23))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(dir, "rt", d, con); err != nil {
		t.Fatal(err)
	}
	// All nine files exist.
	for _, ext := range []string{".aux", ".nodes", ".nets", ".pl", ".scl", ".wts", ".v", ".lib", ".sdc"} {
		if _, err := os.Stat(filepath.Join(dir, "rt"+ext)); err != nil {
			t.Fatalf("missing %s: %v", ext, err)
		}
	}

	d2, con2, err := Load(dir, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if s2, s := d2.Stats(), d.Stats(); s2.Cells != s.Cells || s2.Nets != s.Nets || s2.Pins != s.Pins {
		t.Fatalf("size changed: %d/%d/%d vs %d/%d/%d",
			s2.Cells, s2.Nets, s2.Pins, s.Cells, s.Nets, s.Pins)
	}
	// Positions survive.
	for ci := range d.Cells {
		c := &d.Cells[ci]
		c2i := d2.CellByName(c.Name)
		if c2i < 0 {
			t.Fatalf("cell %s lost", c.Name)
		}
		c2 := &d2.Cells[c2i]
		if math.Abs(c.Pos.X-c2.Pos.X) > 1e-9 || math.Abs(c.Pos.Y-c2.Pos.Y) > 1e-9 {
			t.Fatalf("cell %s moved: %v vs %v", c.Name, c.Pos, c2.Pos)
		}
	}
	// Rows and die survive.
	if len(d2.Rows) != len(d.Rows) {
		t.Fatalf("rows %d vs %d", len(d2.Rows), len(d.Rows))
	}
	if math.Abs(d2.Die.W()-d.Die.W()) > 1e-6 || math.Abs(d2.Die.H()-d.Die.H()) > 1e-6 {
		t.Fatalf("die %v vs %v", d2.Die, d.Die)
	}
	// Constraints survive.
	if con2 == nil || math.Abs(con2.Period-con.Period) > 1e-9 || con2.ClockPort != con.ClockPort {
		t.Fatalf("constraints changed: %+v", con2)
	}

	// The loaded design must produce identical timing (same library, same
	// positions, same constraints).
	g1, err := timing.NewGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := timing.NewGraph(d2, con2)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := timing.Analyze(g1), timing.Analyze(g2)
	if math.Abs(r1.WNS-r2.WNS) > 1e-6 || math.Abs(r1.TNS-r2.TNS) > 1e-6 {
		t.Fatalf("timing changed after round trip: %v/%v vs %v/%v", r1.WNS, r1.TNS, r2.WNS, r2.TNS)
	}
}

func TestParsePl(t *testing.T) {
	pl, err := ParsePl("UCLA pl 1.0\n\n# comment\na 10 20 : N\nb 1.5 2.5 : N /FIXED\n")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Pos["a"].X != 10 || pl.Pos["a"].Y != 20 {
		t.Errorf("a position: %v", pl.Pos["a"])
	}
	if !pl.Fixed["b"] || pl.Fixed["a"] {
		t.Error("fixed flags wrong")
	}
	if _, err := ParsePl("garbage\n"); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := ParsePl("UCLA pl 1.0\nname xx yy : N\n"); err == nil {
		t.Error("bad coordinates accepted")
	}
}

// TestParsePlRejectsNonFinite: strconv parses nan and inf, but a non-finite
// coordinate must be a line-numbered error, not a placement.
func TestParsePlRejectsNonFinite(t *testing.T) {
	for _, xy := range []string{"nan 10", "10 NaN", "inf 10", "10 -Inf", "+inf +inf"} {
		_, err := ParsePl("UCLA pl 1.0\na 1 2 : N\nb " + xy + " : N\n")
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("coordinates %q: err = %v, want a line 3 error", xy, err)
		}
	}
}

func TestParseScl(t *testing.T) {
	src := `UCLA scl 1.0
NumRows : 2
CoreRow Horizontal
  Coordinate : 0
  Height : 12
  Sitewidth : 1
  Sitespacing : 1
  Siteorient : N
  Sitesymmetry : Y
  SubrowOrigin : 0 NumSites : 100
End
CoreRow Horizontal
  Coordinate : 12
  Height : 12
  Sitewidth : 1
  Sitespacing : 1
  SubrowOrigin : 5 NumSites : 90
End
`
	rows, err := ParseScl(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 2 {
		t.Fatalf("rows = %d", len(rows.Rows))
	}
	r := rows.Rows[1]
	if r.Origin.Y != 12 || r.Origin.X != 5 || r.NumSites != 90 || r.Height != 12 {
		t.Errorf("row 1: %+v", r)
	}
	if _, err := ParseScl("UCLA scl 1.0\n"); err == nil {
		t.Error("empty scl accepted")
	}
}

func TestParseNodes(t *testing.T) {
	ni, err := ParseNodes("UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 1\n  a 3 12\n  p 0 0 terminal\n")
	if err != nil {
		t.Fatal(err)
	}
	if ni.W["a"] != 3 || ni.H["a"] != 12 {
		t.Errorf("node a: %v %v", ni.W["a"], ni.H["a"])
	}
	if !ni.Terminal["p"] || ni.Terminal["a"] {
		t.Error("terminal flags wrong")
	}
}

// TestParseNodesRejectsNonFinite: a nan or inf node size is a line-numbered
// error.
func TestParseNodesRejectsNonFinite(t *testing.T) {
	for _, wh := range []string{"nan 12", "3 inf", "-Inf 12"} {
		_, err := ParseNodes("UCLA nodes 1.0\n  a 3 12\n  b " + wh + "\n")
		if err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("sizes %q: err = %v, want a line 3 error", wh, err)
		}
	}
}

// TestLoadRejectsNonFinitePlacement: one NaN coordinate in a saved
// benchmark fails Load with an error naming the .pl file, instead of
// loading a design whose poisoned nets time as untimed.
func TestLoadRejectsNonFinitePlacement(t *testing.T) {
	d, con, err := gen.Generate(gen.DefaultParams("nf", 200, 24))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Save(dir, "nf", d, con); err != nil {
		t.Fatal(err)
	}
	pl := filepath.Join(dir, "nf.pl")
	src, err := os.ReadFile(pl)
	if err != nil {
		t.Fatal(err)
	}
	name := d.Cells[d.Stats().Cells-1].Name
	lines := strings.Split(string(src), "\n")
	poisoned := false
	for i, line := range lines {
		if f := strings.Fields(line); len(f) >= 3 && f[0] == name {
			f[1] = "nan"
			lines[i] = strings.Join(f, " ")
			poisoned = true
		}
	}
	if !poisoned {
		t.Fatalf("cell %s not found in %s", name, pl)
	}
	if err := os.WriteFile(pl, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(dir, "nf")
	if err == nil || !strings.Contains(err.Error(), pl) || !strings.Contains(err.Error(), "line ") {
		t.Fatalf("Load err = %v, want a line-numbered error naming %s", err, pl)
	}
}

func TestNetsFileFormat(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("nf", 100, 31))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteNets(&sb, d); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "UCLA nets 1.0") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "NetDegree :") {
		t.Error("missing NetDegree records")
	}
}
