package timing

import (
	"dtgp/internal/arena"
	"dtgp/internal/rctree"
	"dtgp/internal/rsmt"
)

// MaxTreeNodes bounds the Steiner-tree node count of net ni. It is 0 for a
// net that cannot carry a tree (a clock net, an undriven net, or one with
// fewer than 2 pins). For np pins it is 2·np−2: a rectilinear Steiner
// minimum tree has at most np−2 Steiner points. Every per-node buffer
// pre-sized at this bound survives any later topology rebuild without
// growing. (If the heuristic ever exceeded the bound, the cap-checked
// builders would fall back to a plain heap allocation for that net —
// graceful, not corrupting.)
//
//dtgp:index ni=net return=snode
func (g *Graph) MaxTreeNodes(ni int32) int {
	net := &g.D.Nets[ni]
	if g.IsClockNet[ni] || net.Driver < 0 || len(net.Pins) < 2 {
		return 0
	}
	return 2*len(net.Pins) - 2
}

// PreSizeNetStates carves every timed net's Steiner/RC buffers from the
// arena at their capacity bounds, in one serial pass (the arena is not
// thread-safe; this is the only place net-state memory is carved). The
// parallel fills in RebuildNetStates then run entirely inside these
// capacities — their cap checks never trigger — so a 2M-net design's
// interconnect state is a handful of slabs instead of ~20M small slices.
func PreSizeNetStates(g *Graph, a *arena.Arena, states []NetState) {
	d := g.D
	for ni := range d.Nets {
		m := g.MaxTreeNodes(int32(ni))
		if m == 0 {
			continue
		}
		np := len(d.Nets[ni].Pins)
		ns := &states[ni]
		ns.px = arena.Make[float64](a, np)
		ns.py = arena.Make[float64](a, np)
		ns.pinCap = arena.MakeCap[float64](a, 0, m)
		ns.PinOfNode = arena.MakeCap[int32](a, 0, m)
		ns.Node = arena.MakeCap[int32](a, 0, np)
		ns.Tree = &rsmt.Tree{
			X:     arena.MakeCap[float64](a, 0, m),
			Y:     arena.MakeCap[float64](a, 0, m),
			XPin:  arena.MakeCap[int32](a, 0, m),
			YPin:  arena.MakeCap[int32](a, 0, m),
			Edges: arena.MakeCap[[2]int32](a, 0, m),
		}
		ns.RC = &rctree.Tree{}
		ns.RC.PreSize(m,
			arena.MakeCap[int32](a, 0, m),
			arena.MakeCap[int32](a, 0, m),
			arena.Make[float64](a, 8*m))
	}
}

// BuildNetStatesArena is BuildNetStates with arena-backed per-net buffers:
// a serial pre-size pass carves capacity-bounded storage, then the regular
// parallel extraction fills it. Results are bit-identical to
// BuildNetStates; only the backing storage differs.
func BuildNetStatesArena(g *Graph, a *arena.Arena) []NetState {
	states := make([]NetState, len(g.D.Nets))
	PreSizeNetStates(g, a, states)
	RebuildNetStates(g, states, NewBuildScratch())
	return states
}
