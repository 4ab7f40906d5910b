package verilog

import (
	"strings"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/liberty"
)

func TestWriteParseRoundTrip(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("rt", 300, 17))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	nl, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("Parse: %v\nfirst 500 chars:\n%s", err, sb.String()[:500])
	}
	d2, err := nl.Build(d.Lib)
	if err != nil {
		t.Fatal(err)
	}
	if s2, s := d2.Stats(), d.Stats(); s2.Cells != s.Cells || s2.Nets != s.Nets || s2.Pins != s.Pins {
		t.Errorf("cells/nets/pins %d/%d/%d != %d/%d/%d", s2.Cells, s2.Nets, s2.Pins, s.Cells, s.Nets, s.Pins)
	}
	// Per-cell master and per-net degree must survive.
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Class == 0 && c.Lib >= 0 {
			c2i := d2.CellByName(c.Name)
			if c2i < 0 {
				t.Fatalf("cell %s lost", c.Name)
			}
			if d2.Cells[c2i].Lib != c.Lib {
				t.Fatalf("cell %s master changed", c.Name)
			}
		}
	}
	for ni := range d.Nets {
		n2i := d2.NetByName(d.Nets[ni].Name)
		if n2i < 0 {
			// Port-attached nets are renamed to the port name.
			continue
		}
		if d2.Nets[n2i].Degree() != d.Nets[ni].Degree() {
			t.Fatalf("net %s degree %d → %d", d.Nets[ni].Name,
				d.Nets[ni].Degree(), d2.Nets[n2i].Degree())
		}
	}
}

func TestParseHandComposed(t *testing.T) {
	src := `
// a comment
module top ( a, b, y );
input a;
input b;
output y;
wire w1;
/* block
   comment */
NAND2_X1 u1 ( .A(a), .B(b), .Z(w1) );
INV_X1 u2 ( .A(w1), .Z(y) );
endmodule
`
	nl, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Module != "top" || len(nl.Inputs) != 2 || len(nl.Outputs) != 1 ||
		len(nl.Wires) != 1 || len(nl.Instances) != 2 {
		t.Fatalf("parse result: %+v", nl)
	}
	if nl.Instances[0].Master != "NAND2_X1" || nl.Instances[0].Conns["A"] != "a" {
		t.Errorf("instance 0: %+v", nl.Instances[0])
	}
	lib := liberty.DefaultLibrary()
	d, err := nl.Build(lib)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.Stats().Cells; n != 5 { // 3 ports + 2 gates
		t.Errorf("cells = %d", n)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"module m ; INV_X1 u1 ( .A(x) ",            // unterminated
		"module m ; INV_X1 u1 ( A(x) ); endmodule", // positional
		"wire w;",                                // no module
		"module m ; INV_X1 ( .A(x) ); endmodule", // missing instance name… parses '(' as name
		"module m ; /* oops",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestUnconnectedPin(t *testing.T) {
	src := `module m (a); input a; wire w;
INV_X1 u1 ( .A(a), .Z(w) );
INV_X2 u2 ( .A(w), .Z() );
endmodule`
	nl, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	lib := liberty.DefaultLibrary()
	d, err := nl.Build(lib)
	if err != nil {
		t.Fatal(err)
	}
	u2 := d.CellByName("u2")
	lc := &lib.Cells[d.Cells[u2].Lib]
	zPin := d.Cells[u2].Pins[lc.PinByName("Z")]
	if d.Pins[zPin].Net != -1 {
		t.Error("unconnected pin got a net")
	}
}
