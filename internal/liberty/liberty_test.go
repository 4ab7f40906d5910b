package liberty

import (
	"fmt"
	"strings"
	"testing"
)

// libText renders the library with Write.
func libText(t *testing.T, lib *Library) string {
	t.Helper()
	var sb strings.Builder
	if err := Write(&sb, lib); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestDefaultLibraryValid(t *testing.T) {
	lib := DefaultLibrary()
	if err := lib.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(lib.Cells) < 10 {
		t.Fatalf("library too small: %d cells", len(lib.Cells))
	}
	if lib.CellByName("INV_X1") < 0 || lib.CellByName("DFF_X1") < 0 {
		t.Fatal("missing expected cells")
	}
	if lib.CellByName("NO_SUCH_CELL") != -1 {
		t.Fatal("bogus cell lookup should return -1")
	}
}

func TestDefaultLibraryDeterministic(t *testing.T) {
	a := libText(t, DefaultLibrary())
	b := libText(t, DefaultLibrary())
	if a != b {
		t.Fatal("DefaultLibrary is not deterministic")
	}
}

// nonFiniteLib is a one-cell library whose area attribute and one
// cell_rise table entry are filled in by TestParseRejectsNonFinite.
const nonFiniteLib = `library (mini) {
  cell (INV) {
    area : %s;
    pin (A) { direction : input; capacitance : 0.5; }
    pin (Y) {
      direction : output;
      function : "!A";
      timing () {
        related_pin : "A";
        timing_sense : negative_unate;
        cell_rise (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("0.1, %s", "0.3, 0.4"); }
        cell_fall (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("0.1, 0.2", "0.3, 0.4"); }
        rise_transition (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("0.1, 0.2", "0.3, 0.4"); }
        fall_transition (t) { index_1 ("1, 2"); index_2 ("1, 2"); values ("0.1, 0.2", "0.3, 0.4"); }
      }
    }
  }
}`

// TestParseRejectsNonFinite: strconv accepts nan and inf, but a Liberty
// number must be finite, in a table and in a numeric attribute alike; a
// poisoned table would otherwise time as a design that meets its clock.
func TestParseRejectsNonFinite(t *testing.T) {
	if _, err := Parse(fmt.Sprintf(nonFiniteLib, "1.0", "0.2")); err != nil {
		t.Fatalf("clean library: %v", err)
	}
	for _, bad := range []string{"nan", "inf", "-inf"} {
		if _, err := Parse(fmt.Sprintf(nonFiniteLib, "1.0", bad)); err == nil {
			t.Errorf("table value %s parsed", bad)
		}
		if _, err := Parse(fmt.Sprintf(nonFiniteLib, bad, "0.2")); err == nil {
			t.Errorf("area %s parsed", bad)
		}
	}
}

func TestCellAccessors(t *testing.T) {
	lib := DefaultLibrary()
	inv := &lib.Cells[lib.CellByName("INV_X1")]
	if got := inv.PinByName("A"); got < 0 || inv.Pins[got].Dir != DirInput {
		t.Errorf("INV_X1 pin A lookup failed: %d", got)
	}
	if out := inv.PinByName("Z"); out < 0 || inv.Pins[out].Dir != DirOutput {
		t.Errorf("INV_X1 output lookup failed")
	}
	if inv.ClockPin() != -1 {
		t.Error("INV_X1 should have no clock pin")
	}
	if got := len(inv.Inputs()); got != 1 {
		t.Errorf("INV_X1 inputs = %d, want 1", got)
	}

	dff := &lib.Cells[lib.CellByName("DFF_X1")]
	if !dff.IsSequential {
		t.Error("DFF_X1 not sequential")
	}
	if ck := dff.ClockPin(); ck < 0 || dff.Pins[ck].Name != "CK" {
		t.Error("DFF_X1 clock pin lookup failed")
	}
	// Exactly one clk→Q arc, one setup, one hold.
	var cq, setup, hold int
	for i := range dff.Arcs {
		switch dff.Arcs[i].Kind {
		case ArcClockToQ:
			cq++
		case ArcSetup:
			setup++
		case ArcHold:
			hold++
		}
	}
	if cq != 1 || setup != 1 || hold != 1 {
		t.Errorf("DFF arcs: clk2q=%d setup=%d hold=%d", cq, setup, hold)
	}
}

func TestNANDUnateness(t *testing.T) {
	lib := DefaultLibrary()
	nand := &lib.Cells[lib.CellByName("NAND2_X1")]
	for i := range nand.Arcs {
		if nand.Arcs[i].Unate != NegativeUnate {
			t.Errorf("NAND2 arc %d unateness = %v", i, nand.Arcs[i].Unate)
		}
	}
	xor := &lib.Cells[lib.CellByName("XOR2_X1")]
	for i := range xor.Arcs {
		if xor.Arcs[i].Unate != NonUnate {
			t.Errorf("XOR2 arc %d unateness = %v", i, xor.Arcs[i].Unate)
		}
	}
}

func TestDelayIncreasesWithDrive(t *testing.T) {
	lib := DefaultLibrary()
	x1 := &lib.Cells[lib.CellByName("INV_X1")]
	x4 := &lib.Cells[lib.CellByName("INV_X4")]
	load, slew := 30.0, 40.0
	d1 := x1.Arcs[0].CellRise.Eval(slew, load)
	d4 := x4.Arcs[0].CellRise.Eval(slew, load)
	if d4 >= d1 {
		t.Errorf("INV_X4 (%v) not faster than INV_X1 (%v) at load %v", d4, d1, load)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	lib := DefaultLibrary()
	text := libText(t, lib)
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Name != lib.Name {
		t.Errorf("name %q != %q", got.Name, lib.Name)
	}
	if got.WireResPerDBU != lib.WireResPerDBU || got.WireCapPerDBU != lib.WireCapPerDBU {
		t.Error("wire RC lost in round trip")
	}
	if len(got.Cells) != len(lib.Cells) {
		t.Fatalf("cell count %d != %d", len(got.Cells), len(lib.Cells))
	}
	for ci := range lib.Cells {
		want, have := &lib.Cells[ci], &got.Cells[ci]
		if want.Name != have.Name || len(want.Pins) != len(have.Pins) || len(want.Arcs) != len(have.Arcs) {
			t.Fatalf("cell %q structure changed: pins %d→%d arcs %d→%d",
				want.Name, len(want.Pins), len(have.Pins), len(want.Arcs), len(have.Arcs))
		}
		if want.IsSequential != have.IsSequential {
			t.Errorf("cell %q sequential flag lost", want.Name)
		}
		// Liberty groups arcs under their destination pin, so order may
		// change; match arcs by (from, to, kind).
		type arcKey struct {
			from, to int
			kind     ArcKind
		}
		haveArcs := map[arcKey]*TimingArc{}
		for ai := range have.Arcs {
			a := &have.Arcs[ai]
			haveArcs[arcKey{a.From, a.To, a.Kind}] = a
		}
		for ai := range want.Arcs {
			wa := &want.Arcs[ai]
			ha := haveArcs[arcKey{wa.From, wa.To, wa.Kind}]
			if ha == nil {
				t.Fatalf("cell %q arc %d (%v) lost in round trip", want.Name, ai, wa.Kind)
			}
			if wa.Unate != ha.Unate && !wa.IsCheck() {
				t.Errorf("cell %q arc %d unateness changed", want.Name, ai)
			}
			if wa.CellRise != nil {
				w := wa.CellRise.Eval(33, 7)
				h := ha.CellRise.Eval(33, 7)
				if diff := w - h; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("cell %q arc %d cell_rise changed: %v vs %v", want.Name, ai, w, h)
				}
			}
			if wa.RiseConstraint != nil {
				w := wa.RiseConstraint.Eval(20, 30)
				h := ha.RiseConstraint.Eval(20, 30)
				if diff := w - h; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("cell %q arc %d rise_constraint changed", want.Name, ai)
				}
			}
		}
		for pi := range want.Pins {
			wp, hp := &want.Pins[pi], &have.Pins[pi]
			if wp.Name != hp.Name || wp.Dir != hp.Dir || wp.Cap != hp.Cap ||
				wp.IsClock != hp.IsClock || wp.Offset != hp.Offset {
				t.Errorf("cell %q pin %q changed in round trip", want.Name, wp.Name)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no library", "cell (X) { }"},
		{"unterminated group", "library (l) { cell (X) {"},
		{"unterminated comment", "library (l) { /* oops }"},
		{"unterminated string", `library (l) { foo : "bar; }`},
		{"garbage statement", "library (l) { 123garbage }"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

func TestParseIgnoresCommentsAndUnknowns(t *testing.T) {
	src := `
/* header comment */
library (mini) {
  // line comment
  time_unit : "1ps";
  unknown_group (x, y) { nested (z) { a : 1; } }
  dtgp_wire_res_per_dbu : 0.01;
  dtgp_wire_cap_per_dbu : 0.2;
  cell (BUF) {
    area : 36;
    dtgp_width : 3;
    dtgp_height : 12;
    pin (A) { direction : input; capacitance : 1.5; }
    pin (Z) {
      direction : output;
      max_capacitance : 60;
      timing () {
        related_pin : "A";
        timing_type : combinational;
        timing_sense : positive_unate;
        cell_rise (tpl) { index_1 ("1, 2"); index_2 ("1, 2"); values ("1, 2", "3, 4"); }
        cell_fall (tpl) { index_1 ("1, 2"); index_2 ("1, 2"); values ("1, 2", "3, 4"); }
        rise_transition (tpl) { index_1 ("1, 2"); index_2 ("1, 2"); values ("1, 2", "3, 4"); }
        fall_transition (tpl) { index_1 ("1, 2"); index_2 ("1, 2"); values ("1, 2", "3, 4"); }
      }
    }
  }
}`
	lib, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if lib.Name != "mini" || len(lib.Cells) != 1 {
		t.Fatalf("unexpected parse result: %+v", lib)
	}
	buf := &lib.Cells[0]
	if len(buf.Arcs) != 1 || buf.Arcs[0].Unate != PositiveUnate {
		t.Fatalf("arc parse failed: %+v", buf.Arcs)
	}
	if got := buf.Arcs[0].CellRise.Eval(1.5, 1.5); got != 2.5 {
		t.Errorf("parsed LUT eval = %v, want 2.5", got)
	}
}

func TestValidateCatchesBrokenLibraries(t *testing.T) {
	mk := func() *Library { return DefaultLibrary() }

	lib := mk()
	lib.Cells[0].Name = lib.Cells[1].Name
	if err := lib.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate cell not caught: %v", err)
	}

	lib = mk()
	lib.Cells[0].Arcs[0].From = 99
	if err := lib.Validate(); err == nil {
		t.Error("out-of-range arc not caught")
	}

	lib = mk()
	lib.Cells[0].Arcs[0].CellRise = nil
	if err := lib.Validate(); err == nil {
		t.Error("missing NLDM table not caught")
	}

	lib = mk()
	di := lib.CellByName("DFF_X1")
	for pi := range lib.Cells[di].Pins {
		lib.Cells[di].Pins[pi].IsClock = false
	}
	if err := lib.Validate(); err == nil {
		t.Error("sequential cell without clock pin not caught")
	}
}

// TestLibrariesShareEqualAxes: the synthetic library and a parsed one give
// every table axis with the same values as one slice, so that a Query
// located on one table's axis is located on all of them. The synthetic
// tables sample two axes, slew and load.
func TestLibrariesShareEqualAxes(t *testing.T) {
	lib := DefaultLibrary()
	parsed, err := Parse(libText(t, lib))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	for _, c := range []struct {
		name string
		lib  *Library
	}{{"synthetic", lib}, {"parsed", parsed}} {
		var axes [][]float64
		for ci := range c.lib.Cells {
			for ai := range c.lib.Cells[ci].Arcs {
				a := &c.lib.Cells[ci].Arcs[ai]
				for _, l := range []*LUT{a.CellRise, a.CellFall, a.RiseTransition, a.FallTransition,
					a.RiseConstraint, a.FallConstraint} {
					if l == nil {
						continue
					}
					for _, axis := range [][]float64{l.Index1, l.Index2} {
						seen := false
						for _, b := range axes {
							if sameAxis(axis, b) {
								seen = true
							} else if len(axis) == len(b) && equalBits(axis, b) {
								t.Fatalf("%s: cell %q has an axis %v equal to another but not shared",
									c.name, c.lib.Cells[ci].Name, axis)
							}
						}
						if !seen {
							axes = append(axes, axis)
						}
					}
				}
			}
		}
		if len(axes) != 2 {
			t.Errorf("%s: %d distinct axis slices, want 2 (slew and load)", c.name, len(axes))
		}
	}
}
