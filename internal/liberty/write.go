package liberty

import (
	"fmt"
	"io"
	"strings"
)

// Write emits the library in Liberty syntax. The output round-trips through
// Parse: Parse(Write(lib)) reproduces the library including the dtgp_*
// geometry extension attributes.
func Write(w io.Writer, lib *Library) error {
	bw := &errWriter{w: w}
	bw.printf("library (%s) {\n", lib.Name)
	bw.printf("  delay_model : table_lookup;\n")
	bw.printf("  time_unit : \"1ps\";\n")
	bw.printf("  capacitive_load_unit (1, ff);\n")
	bw.printf("  default_max_transition : %g;\n", lib.DefaultMaxTransition)
	bw.printf("  dtgp_wire_res_per_dbu : %g;\n", lib.WireResPerDBU)
	bw.printf("  dtgp_wire_cap_per_dbu : %g;\n", lib.WireCapPerDBU)
	for ci := range lib.Cells {
		writeCell(bw, &lib.Cells[ci])
	}
	bw.printf("}\n")
	return bw.err
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

func writeCell(w *errWriter, c *Cell) {
	w.printf("  cell (%s) {\n", c.Name)
	w.printf("    area : %g;\n", c.Area)
	w.printf("    dtgp_width : %g;\n", c.Width)
	w.printf("    dtgp_height : %g;\n", c.Height)
	// Arcs are stored per destination pin in Liberty.
	arcsTo := make(map[int][]*TimingArc)
	for ai := range c.Arcs {
		a := &c.Arcs[ai]
		arcsTo[a.To] = append(arcsTo[a.To], a)
	}
	for pi := range c.Pins {
		p := &c.Pins[pi]
		w.printf("    pin (%s) {\n", p.Name)
		w.printf("      direction : %s;\n", p.Dir)
		if p.Dir == DirInput || p.Dir == DirInout {
			w.printf("      capacitance : %g;\n", p.Cap)
		}
		if p.Dir == DirOutput && p.MaxCap > 0 {
			w.printf("      max_capacitance : %g;\n", p.MaxCap)
		}
		if p.IsClock {
			w.printf("      clock : true;\n")
		}
		w.printf("      dtgp_offset_x : %g;\n", p.Offset.X)
		w.printf("      dtgp_offset_y : %g;\n", p.Offset.Y)
		for _, a := range arcsTo[pi] {
			writeArc(w, c, a)
		}
		w.printf("    }\n")
	}
	w.printf("  }\n")
}

func writeArc(w *errWriter, c *Cell, a *TimingArc) {
	w.printf("      timing () {\n")
	w.printf("        related_pin : \"%s\";\n", c.Pins[a.From].Name)
	w.printf("        timing_type : %s;\n", a.Kind)
	if !a.IsCheck() {
		w.printf("        timing_sense : %s;\n", a.Unate)
	}
	writeTable(w, "cell_rise", a.CellRise)
	writeTable(w, "cell_fall", a.CellFall)
	writeTable(w, "rise_transition", a.RiseTransition)
	writeTable(w, "fall_transition", a.FallTransition)
	writeTable(w, "rise_constraint", a.RiseConstraint)
	writeTable(w, "fall_constraint", a.FallConstraint)
	w.printf("      }\n")
}

func writeTable(w *errWriter, name string, t *LUT) {
	if t == nil {
		return
	}
	w.printf("        %s (dtgp_template) {\n", name)
	w.printf("          index_1 (\"%s\");\n", joinFloats(t.Index1))
	w.printf("          index_2 (\"%s\");\n", joinFloats(t.Index2))
	w.printf("          values (")
	n2 := len(t.Index2)
	for i := 0; i < len(t.Index1); i++ {
		if i > 0 {
			w.printf(", \\\n                  ")
		}
		w.printf("\"%s\"", joinFloats(t.Values[i*n2:(i+1)*n2]))
	}
	w.printf(");\n")
	w.printf("        }\n")
}

func joinFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%g", x)
	}
	return strings.Join(parts, ", ")
}
