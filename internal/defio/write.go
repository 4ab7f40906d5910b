// Package defio writes a DEF 5.8 subset — the interchange format the
// paper's evaluation used ("We acquired the DEF result from authors of
// [24]"). The subset covers DIEAREA, ROW, COMPONENTS with placement state,
// PINS and NETS, which together with a Liberty library describe a placed
// design.
//
// DEF coordinates are integers; this implementation writes 1000 DEF units
// per DBU (UNITS DISTANCE MICRONS 1000 with one micron ≡ one DBU), so
// positions are kept to 1e-3 DBU.
package defio

import (
	"fmt"
	"io"
	"math"
	"strings"

	"dtgp/internal/netlist"
)

// unitsPerDBU is the DEF integer scale.
const unitsPerDBU = 1000

func toUnits(v float64) int64 { return int64(math.Round(v * unitsPerDBU)) }

// Write emits the design as DEF.
func Write(w io.Writer, d *netlist.Design) error {
	var b strings.Builder
	b.WriteString("VERSION 5.8 ;\nDIVIDERCHAR \"/\" ;\nBUSBITCHARS \"[]\" ;\n")
	fmt.Fprintf(&b, "DESIGN %s ;\n", d.Name)
	fmt.Fprintf(&b, "UNITS DISTANCE MICRONS %d ;\n\n", unitsPerDBU)
	fmt.Fprintf(&b, "DIEAREA ( %d %d ) ( %d %d ) ;\n\n",
		toUnits(d.Die.Lo.X), toUnits(d.Die.Lo.Y), toUnits(d.Die.Hi.X), toUnits(d.Die.Hi.Y))

	for i, r := range d.Rows {
		fmt.Fprintf(&b, "ROW row_%d CoreSite %d %d N DO %d BY 1 STEP %d 0 ;\n",
			i, toUnits(r.Origin.X), toUnits(r.Origin.Y), r.NumSites, toUnits(r.SiteWidth))
	}
	b.WriteString("\n")

	// COMPONENTS: standard cells and macros (ports go to PINS).
	nComp := 0
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Class != netlist.ClassPort && c.Class != netlist.ClassFiller {
			nComp++
		}
	}
	fmt.Fprintf(&b, "COMPONENTS %d ;\n", nComp)
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Class == netlist.ClassPort || c.Class == netlist.ClassFiller {
			continue
		}
		master := "BLOCK"
		if c.Lib >= 0 {
			master = d.Lib.Cells[c.Lib].Name
		}
		state := "PLACED"
		if c.Fixed() {
			state = "FIXED"
		}
		fmt.Fprintf(&b, "  - %s %s + %s ( %d %d ) N ;\n",
			c.Name, master, state, toUnits(c.Pos.X), toUnits(c.Pos.Y))
	}
	b.WriteString("END COMPONENTS\n\n")

	// PINS: primary IO.
	nPins := 0
	for ci := range d.Cells {
		if d.Cells[ci].Class == netlist.ClassPort {
			nPins++
		}
	}
	fmt.Fprintf(&b, "PINS %d ;\n", nPins)
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if c.Class != netlist.ClassPort {
			continue
		}
		pid := c.Pins[0]
		dir := "OUTPUT"
		if d.Pins[pid].Dir == netlist.PinOutput { // drives the net → design input
			dir = "INPUT"
		}
		netName := ""
		if n := d.Pins[pid].Net; n >= 0 {
			netName = d.Nets[n].Name
		}
		fmt.Fprintf(&b, "  - %s + NET %s + DIRECTION %s + FIXED ( %d %d ) N ;\n",
			c.Name, netName, dir, toUnits(c.Pos.X), toUnits(c.Pos.Y))
	}
	b.WriteString("END PINS\n\n")

	// NETS.
	fmt.Fprintf(&b, "NETS %d ;\n", len(d.Nets))
	for ni := range d.Nets {
		net := &d.Nets[ni]
		fmt.Fprintf(&b, "  - %s", net.Name)
		for _, pid := range net.Pins {
			pin := &d.Pins[pid]
			c := &d.Cells[pin.Cell]
			if c.Class == netlist.ClassPort {
				fmt.Fprintf(&b, " ( PIN %s )", c.Name)
			} else {
				pinName := fmt.Sprintf("p%d", pin.LibPin)
				if c.Lib >= 0 && pin.LibPin >= 0 {
					pinName = d.Lib.Cells[c.Lib].Pins[pin.LibPin].Name
				}
				fmt.Fprintf(&b, " ( %s %s )", c.Name, pinName)
			}
		}
		b.WriteString(" ;\n")
	}
	b.WriteString("END NETS\n\nEND DESIGN\n")
	_, err := io.WriteString(w, b.String())
	return err
}
