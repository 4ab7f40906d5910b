package defio

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"dtgp/internal/gen"
	"dtgp/internal/netlist"
)

// TestWriteEmitsDesign checks Write's text against the design it came from:
// the die, one ROW per row, every component and pin at its position in DEF
// units, and the COMPONENTS, PINS and NETS counts.
func TestWriteEmitsDesign(t *testing.T) {
	d, _, err := gen.Generate(gen.DefaultParams("defrt", 400, 41))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	die := fmt.Sprintf("DIEAREA ( %d %d ) ( %d %d ) ;",
		toUnits(d.Die.Lo.X), toUnits(d.Die.Lo.Y), toUnits(d.Die.Hi.X), toUnits(d.Die.Hi.Y))
	if !strings.Contains(text, die) {
		t.Errorf("missing %q", die)
	}

	rows := 0
	declared := map[string]int{} // section → count on its header line
	entries := map[string]int{}  // section → "- name …" lines in it
	placed := map[string][2]int64{}
	section := ""
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case f[0] == "ROW":
			rows++
		case len(f) == 3 && f[2] == ";" && (f[0] == "COMPONENTS" || f[0] == "PINS" || f[0] == "NETS"):
			n, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("bad header %q", line)
			}
			section, declared[f[0]] = f[0], n
		case f[0] == "END":
			section = ""
		case f[0] == "-" && section != "":
			entries[section]++
			for i, w := range f {
				if (w == "PLACED" || w == "FIXED") && i+3 < len(f) {
					x, errX := strconv.ParseInt(f[i+2], 10, 64)
					y, errY := strconv.ParseInt(f[i+3], 10, 64)
					if errX != nil || errY != nil {
						t.Fatalf("bad coordinate in %q", line)
					}
					placed[f[1]] = [2]int64{x, y}
				}
			}
		}
	}
	if rows != len(d.Rows) {
		t.Errorf("%d ROW lines, want %d", rows, len(d.Rows))
	}

	comps, ports := 0, 0
	for ci := range d.Cells {
		c := &d.Cells[ci]
		switch c.Class {
		case netlist.ClassFiller:
			continue
		case netlist.ClassPort:
			ports++
		default:
			comps++
		}
		want := [2]int64{toUnits(c.Pos.X), toUnits(c.Pos.Y)}
		if got, ok := placed[c.Name]; !ok || got != want {
			t.Fatalf("%s at %v in DEF, want %v", c.Name, got, want)
		}
	}
	for _, s := range []struct {
		name string
		want int
	}{{"COMPONENTS", comps}, {"PINS", ports}, {"NETS", len(d.Nets)}} {
		if declared[s.name] != s.want || entries[s.name] != s.want {
			t.Errorf("%s: header says %d, %d entries, want %d", s.name, declared[s.name], entries[s.name], s.want)
		}
	}
}
