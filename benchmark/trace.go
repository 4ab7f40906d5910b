package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.
type span struct {
	Name   string  `json:"name"`
	Design string  `json:"design"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for none
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; they are written once the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name, design string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Design: design, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// length of span i in seconds.
func (t *tracer) length(i int) float64 { return t.spans[i].End - t.spans[i].Start }

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name, design string, parent int, start, end float64) {
	t.spans = append(t.spans, span{Name: name, Design: design, Parent: parent, Start: start, End: end})
}

// durations returns the length in seconds of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// busyUnder is the total length of the spans with one of the names whose
// parent is one of parents.
func (t *tracer) busyUnder(parents []int, names []string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if slices.Contains(parents, s.Parent) && slices.Contains(names, s.Name) {
			total += s.End - s.Start
		}
	}
	return total
}

func (t *tracer) write(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
