package timing

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// PathStep is one pin on a traced timing path.
type PathStep struct {
	Pin        int32 //dtgp:index domain=pin
	Transition Transition
	AT         float64
	Slew       float64
	// Incr is the delay of the arc arriving at this step.
	Incr float64
}

// Path is a traced late path ending at an endpoint.
type Path struct {
	Steps []PathStep
	Slack float64
}

// EndpointPath traces the worst late path into endpoint ei.
//
//dtgp:index ei=endp
func (r *Result) EndpointPath(ei int) Path {
	ep := &r.G.Endpoints[ei]
	// Pick the worse transition at the endpoint.
	var t int32 = -1
	slack := inf
	for tr := Rise; tr <= Fall; tr++ {
		ti := TIdx(ep.Pin, tr)
		if !r.Valid[ti] || math.IsInf(r.RATLate[ti], 1) {
			continue
		}
		if s := r.RATLate[ti] - r.ATLate[ti]; s < slack {
			slack = s
			t = ti
		}
	}
	if t < 0 {
		return Path{}
	}
	// Follow the canonical candidate back to a start pin, which has none.
	var steps []PathStep
	var cs []candidate
	for t >= 0 {
		st := PathStep{Pin: t / 2, Transition: Transition(t % 2), AT: r.ATLate[t], Slew: r.SlewLate[t]}
		cs = r.candidates(t, cs)
		t = -1
		if len(cs) > 0 {
			st.Incr, t = cs[0].delay, cs[0].pred
		}
		steps = append(steps, st)
	}
	slices.Reverse(steps)
	return Path{Steps: steps, Slack: slack}
}

// Report renders a human-readable timing summary with the k worst paths.
func (r *Result) Report(k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Timing summary (setup/late)\n")
	fmt.Fprintf(&b, "  endpoints : %d\n", len(r.G.Endpoints))
	fmt.Fprintf(&b, "  WNS       : %.3f ps\n", r.WNS)
	fmt.Fprintf(&b, "  TNS       : %.3f ps\n", r.TNS)
	if r.EndpointHold != nil {
		fmt.Fprintf(&b, "  hold WNS  : %.3f ps\n", r.WNSHold)
		fmt.Fprintf(&b, "  hold TNS  : %.3f ps\n", r.TNSHold)
	}
	fmt.Fprintf(&b, "  graph depth: %d levels\n", r.G.MaxLevel())

	type epSlack struct {
		ei    int
		slack float64
	}
	eps := make([]epSlack, 0, len(r.EndpointSetup))
	for ei, s := range r.EndpointSetup {
		if !math.IsInf(s, 1) {
			eps = append(eps, epSlack{ei, s})
		}
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].slack < eps[j].slack })
	if k > len(eps) {
		k = len(eps)
	}
	for i := 0; i < k; i++ {
		p := r.EndpointPath(eps[i].ei)
		fmt.Fprintf(&b, "\nPath %d (slack %.3f ps):\n", i+1, p.Slack)
		for _, st := range p.Steps {
			fmt.Fprintf(&b, "  %-32s %-4s  incr %8.3f  at %9.3f  slew %7.3f\n",
				r.G.D.PinName(st.Pin), st.Transition, st.Incr, st.AT, st.Slew)
		}
	}
	return b.String()
}

// CriticalDelay returns the effective worst path delay: the clock period
// minus WNS. It is what a period-calibration pass uses to derive a
// tight-but-achievable clock constraint from a reference placement.
func (r *Result) CriticalDelay() float64 {
	return r.G.Period() - r.WNS
}

// SlackHistogram buckets endpoint setup slacks; edges must be ascending.
// Bucket i counts endpoints with edges[i-1] <= slack < edges[i]; the first
// bucket is slack < edges[0] and the last slack >= edges[len-1].
func (r *Result) SlackHistogram(edges []float64) []int {
	counts := make([]int, len(edges)+1)
	for _, s := range r.EndpointSetup {
		if math.IsInf(s, 1) {
			continue
		}
		b := sort.SearchFloat64s(edges, s)
		if b < len(edges) && s == edges[b] {
			b++
		}
		counts[b]++
	}
	return counts
}
