package timing

import (
	"slices"
	"testing"

	"dtgp/internal/gen"
)

// TestCandidateTableMatchesLibrary rebuilds the Eq. 11 candidates of every
// cell-output tnode from its library cell's arcs and InputTransitions, on
// the eight superblue presets at 1/1024, and checks the graph's table
// against them: each window holds exactly its tnode's candidates, in
// library arc order, then input transition, with the LUT ids resolving to
// the arc's tables for the output transition; every other window is empty;
// and the transpose lists, per input tnode, the candidates that read it, in
// library arc order, then output transition.
func TestCandidateTableMatchesLibrary(t *testing.T) {
	for _, name := range gen.PresetNames() {
		p, _ := gen.PresetByName(name)
		d, con, err := gen.Generate(p.Params(1024))
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewGraph(d, con)
		if err != nil {
			t.Fatal(err)
		}
		n2 := 2 * len(d.Pins)
		// seen[v] counts the candidates of output tnode v the library walk
		// has met; readers[u] lists the candidates that read input tnode u.
		seen := make([]int32, n2)
		readers := make([][]int32, n2)
		for ci := range d.Cells {
			cell := &d.Cells[ci]
			if cell.Lib < 0 {
				continue
			}
			for ai, arc := range d.Lib.Cells[cell.Lib].Arcs {
				if arc.IsCheck() {
					continue
				}
				for outTr := Rise; outTr <= Fall; outTr++ {
					v := TIdx(cell.Pins[arc.To], outTr)
					dl, tl := arc.CellRise, arc.RiseTransition
					if outTr == Fall {
						dl, tl = arc.CellFall, arc.FallTransition
					}
					for _, inTr := range InputTransitions(arc.Unate, outTr) {
						if inTr < 0 {
							continue
						}
						u := TIdx(cell.Pins[arc.From], Transition(inTr))
						c := g.CandOff[v] + seen[v]
						seen[v]++
						if c >= g.CandOff[v+1] || g.CandIn[c] != u || g.CandOut[c] != v ||
							g.LUTs[g.CandDelay[c]] != dl || g.LUTs[g.CandTrans[c]] != tl {
							t.Fatalf("%s: candidate %d of tnode %d is not arc %d of cell %s from tnode %d",
								name, seen[v]-1, v, ai, cell.Name, u)
						}
						readers[u] = append(readers[u], c)
					}
				}
			}
		}
		total := 0
		for v := 0; v < n2; v++ {
			if got := g.CandOff[v+1] - g.CandOff[v]; got != seen[v] {
				t.Fatalf("%s: tnode %d's window holds %d candidates, the library gives %d", name, v, got, seen[v])
			}
			if got := g.FanCand[g.FanOff[v]:g.FanOff[v+1]]; !slices.Equal(got, readers[v]) {
				t.Fatalf("%s: tnode %d is read by candidates %v, the library gives %v", name, v, got, readers[v])
			}
			total += int(seen[v])
		}
		if total == 0 || total != len(g.CandIn) || total != len(g.FanCand) {
			t.Fatalf("%s: %d library candidates, table holds %d, transpose %d", name, total, len(g.CandIn), len(g.FanCand))
		}
	}
}
