package timing

import (
	"container/heap"
	"math"
	"sort"
)

// K-worst path enumeration via the classic deviation method on the late
// graph (implicit path representation, as in path-ranking STA engines):
// the single worst path into each endpoint follows, at every pin, its best
// (max-arrival) fan-in candidate; every other path is the worst path plus a
// set of "deviations" — switches to a lower-ranked candidate at some pins.
// Each deviation costs a known slack increase, so a lazy best-first search
// over deviation sets yields paths in exact worst-first order without
// materialising the exponential path set.

// candidate is one fan-in option of a (pin, transition) node.
type candidate struct {
	pred    int32 //dtgp:index domain=tnode
	arrival float64
	delay   float64
}

// candidates returns the fan-in candidates of late node t, reusing buf's
// storage, sorted by arrival descending. The sort is stable, so ties keep
// fan-in order and the first candidate is the one the arrival kernels'
// strict max kept: the canonical worst predecessor every path tracer
// follows.
//
//dtgp:index t=tnode
func (s *LateState) candidates(t int32, buf []candidate) []candidate {
	g := s.G
	pid := t / 2
	tr := Transition(t % 2)
	cs := buf[:0]
	switch {
	case g.IsStart[pid]:
		// no fan-in
	case g.IsNetSink[pid]:
		if driver := s.Wires.Driver[pid]; driver >= 0 {
			u := TIdx(driver, tr)
			if s.Valid[u] {
				d := s.Wires.Delay[pid] * s.derate
				cs = append(cs, candidate{pred: u, arrival: s.ATLate[u] + d, delay: d})
			}
		}
	case g.IsCellOut[pid]:
		load := s.Wires.Load[pid]
		for c := g.CandOff[t]; c < g.CandOff[t+1]; c++ {
			u := g.CandIn[c]
			if !s.Valid[u] {
				continue
			}
			d := g.LUTs[g.CandDelay[c]].Eval(s.SlewLate[u], load) * s.derate
			cs = append(cs, candidate{pred: u, arrival: s.ATLate[u] + d, delay: d})
		}
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].arrival > cs[j].arrival })
	return cs
}

// pathEnum holds enumeration state over one analysis result. All per-node
// state is slice-indexed by TIdx: maps here would make candidate-cache
// population (and with it the tie order of equal-arrival paths) depend on
// map iteration order.
type pathEnum struct {
	r *Result
	// cands caches sorted fan-in candidates per TIdx node; haveCands marks
	// nodes whose (possibly empty) candidate list is already computed.
	cands     [][]candidate //dtgp:index domain=tnode
	haveCands []bool        //dtgp:index domain=tnode
	// devIdx is the deviation index per TIdx node of the entry currently
	// being materialised; 0 (the canonical worst predecessor) when the
	// entry carries no deviation for that node. Reset after each use.
	devIdx []int32 //dtgp:index domain=tnode
}

// newPathEnum sizes the slice-indexed enumeration state for one result.
func newPathEnum(r *Result) *pathEnum {
	n2 := len(r.ATLate)
	return &pathEnum{
		r:         r,
		cands:     make([][]candidate, n2),
		haveCands: make([]bool, n2),
		devIdx:    make([]int32, n2),
	}
}

// candidatesOf returns the cached fan-in candidates of node t (index 0 =
// the canonical worst predecessor).
//
//dtgp:index t=tnode
func (pe *pathEnum) candidatesOf(t int32) []candidate {
	if !pe.haveCands[t] {
		pe.cands[t] = pe.r.candidates(t, nil)
		pe.haveCands[t] = true
	}
	return pe.cands[t]
}

// setDevs installs an entry's deviations into devIdx; clearDevs undoes it.
func (pe *pathEnum) setDevs(devs []deviation) {
	for _, d := range devs {
		pe.devIdx[d.node] = int32(d.idx)
	}
}

func (pe *pathEnum) clearDevs(devs []deviation) {
	for _, d := range devs {
		pe.devIdx[d.node] = 0
	}
}

// deviation switches node t from candidate 0 to candidate idx.
type deviation struct {
	node int32 //dtgp:index domain=tnode
	idx  int
}

// enumEntry is one (implicit) path: an endpoint transition plus deviations
// ordered from the endpoint toward the source.
type enumEntry struct {
	slack float64
	endT  int32 //dtgp:index domain=tnode
	devs  []deviation
}

type entryHeap []enumEntry

func (h entryHeap) Len() int           { return len(h) }
func (h entryHeap) Less(i, j int) bool { return h[i].slack < h[j].slack }
func (h entryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)        { *h = append(*h, x.(enumEntry)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// chainOf materialises the node chain of an entry from the endpoint to a
// start pin, honouring its deviations.
//
//dtgp:index return=[]tnode
func (pe *pathEnum) chainOf(e enumEntry) []int32 {
	pe.setDevs(e.devs)
	defer pe.clearDevs(e.devs)
	var chain []int32
	cur := e.endT
	for cur >= 0 {
		chain = append(chain, cur)
		cs := pe.candidatesOf(cur)
		if len(cs) == 0 {
			break
		}
		idx := int(pe.devIdx[cur])
		if idx >= len(cs) {
			idx = len(cs) - 1
		}
		cur = cs[idx].pred
	}
	return chain
}

// KWorstPaths returns up to k distinct paths in worst-slack-first order
// across all endpoints. Non-worst-path slacks use graph-based slews (the
// standard GBA approximation — deviating upstream would in principle change
// downstream slews slightly; a full PBA re-evaluation is out of scope).
func (r *Result) KWorstPaths(k int) []Path {
	pe := newPathEnum(r)
	h := &entryHeap{}

	for ei := range r.G.Endpoints {
		ep := &r.G.Endpoints[ei]
		for tr := Rise; tr <= Fall; tr++ {
			t := TIdx(ep.Pin, tr)
			if !r.Valid[t] || math.IsInf(r.RATLate[t], 1) {
				continue
			}
			heap.Push(h, enumEntry{slack: r.RATLate[t] - r.ATLate[t], endT: t})
		}
	}

	var out []Path
	for h.Len() > 0 && len(out) < k {
		e := heap.Pop(h).(enumEntry)
		chain := pe.chainOf(e)
		out = append(out, pe.materialise(e, chain))

		// Children: bump the last deviation, or add a new deviation at any
		// chain node strictly closer to the source than the last one.
		startIdx := 0
		if len(e.devs) > 0 {
			last := e.devs[len(e.devs)-1]
			for i, node := range chain {
				if node == last.node {
					startIdx = i
					break
				}
			}
			// Bump the last deviation to the next candidate.
			cs := pe.candidatesOf(last.node)
			if last.idx+1 < len(cs) {
				nd := append(append([]deviation(nil), e.devs[:len(e.devs)-1]...),
					deviation{last.node, last.idx + 1})
				delta := cs[0].arrival - cs[last.idx+1].arrival
				base := e.slack - (cs[0].arrival - cs[last.idx].arrival)
				heap.Push(h, enumEntry{slack: base + delta, endT: e.endT, devs: nd})
			}
			startIdx++ // new deviations must come after (closer to source)
		}
		for i := startIdx; i < len(chain); i++ {
			node := chain[i]
			cs := pe.candidatesOf(node)
			if len(cs) < 2 {
				continue
			}
			delta := cs[0].arrival - cs[1].arrival
			nd := append(append([]deviation(nil), e.devs...), deviation{node, 1})
			heap.Push(h, enumEntry{slack: e.slack + delta, endT: e.endT, devs: nd})
		}
	}
	return out
}

// materialise converts an implicit entry + chain into a reportable Path.
// Arrival times along a deviated path differ from the stored per-pin ATs;
// they are reconstructed by summing the candidate delays source→endpoint.
func (pe *pathEnum) materialise(e enumEntry, chain []int32) Path {
	r := pe.r
	pe.setDevs(e.devs)
	defer pe.clearDevs(e.devs)
	// chain is endpoint→source; reverse it.
	steps := make([]PathStep, len(chain))
	for i := range chain {
		t := chain[len(chain)-1-i]
		steps[i] = PathStep{
			Pin:        t / 2,
			Transition: Transition(t % 2),
			Slew:       r.SlewLate[t],
		}
	}
	// Reconstruct arrivals: the source keeps its stored AT; each following
	// step adds the candidate delay actually taken.
	at := r.ATLate[chain[len(chain)-1]]
	steps[0].AT = at
	for i := 1; i < len(steps); i++ {
		t := TIdx(steps[i].Pin, steps[i].Transition)
		cs := pe.candidatesOf(t)
		idx := int(pe.devIdx[t])
		if idx >= len(cs) {
			idx = len(cs) - 1
		}
		at += cs[idx].delay
		steps[i].AT = at
		steps[i].Incr = cs[idx].delay
	}
	return Path{Steps: steps, Slack: e.slack}
}
