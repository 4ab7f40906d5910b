package analysis

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestDirtyMarkGolden(t *testing.T) { runGoldenFixture(t, "dirtymark", DirtyMark) }

// TestDirtyMarkSeededMutants pins the acceptance cases from the issue: the
// three seeded mutants — a removed dirty-mark, a write hidden in a helper
// callee, and a write behind a method value — must each be reported, and
// the covered variants must stay silent.
func TestDirtyMarkSeededMutants(t *testing.T) {
	prog, facts, dir := loadFixture(t, "dirtymark")
	diags, err := RunAnalyzers(prog, facts, []*Analyzer{DirtyMark}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := formatDiags(dir, diags)
	for _, want := range []string{
		"Corrupt",        // removed dirty-mark: direct uncovered write
		"helperSet",      // write via helper callee (chain through ViaHelper)
		"ViaHelper",      // ...and the chain must name the leaking root
		"poke",           // write behind a method value
		"ViaMethodValue", // ...reached through apply(g.poke)
	} {
		if !strings.Contains(got, want) {
			t.Errorf("dirtymark findings missing %q:\n%s", want, got)
		}
	}
	for _, clean := range []string{"GrowCovered", "ResetCovered", "LoopCovered", "ViaHelperCovered", "AllowedWrite"} {
		if strings.Contains(got, clean) {
			t.Errorf("dirtymark flagged covered/suppressed function %q:\n%s", clean, got)
		}
	}
}

// TestDirtyMarkSuppression: the //dtgp:allow(dirtymark) write must land in
// the audit stream, not the failure stream.
func TestDirtyMarkSuppression(t *testing.T) {
	prog, facts, _ := loadFixture(t, "dirtymark")
	_, suppressed, err := runAnalyzersFull(prog, facts, []*Analyzer{DirtyMark}, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range suppressed {
		if d.Check == "dirtymark" && strings.Contains(d.Message, "gen") {
			found = true
		}
	}
	if !found {
		t.Errorf("AllowedWrite suppression missing from audit stream: %v", suppressed)
	}
}

// TestStaleAllowPromotion: on an unfiltered Vet run, a //dtgp:allow that
// suppresses nothing is itself a hard finding — except hotalloc (and
// blanket "all") entries when escape data was not collected, since the
// analyzer then reports nothing to suppress.
func TestStaleAllowPromotion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fxstale\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A program, so that unreached has nothing to report.
	src := `package main

import "errors"

// Used suppression: the dropped error below is a real errflow finding.
func Used() {
	err := errors.New("x") //dtgp:allow(errflow) best-effort probe
	_ = func() {}
	err = nil
	_ = err
}

// Stale suppression: nothing here trips errflow any more.
func Stale() int {
	return 1 //dtgp:allow(errflow)
}

// Undecidable without escape data: must NOT be promoted on this run.
func Hot() int {
	return 2 //dtgp:allow(hotalloc)
}

func main() { Used(); Stale(); Hot() }
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Vet(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	for _, d := range rep.Diagnostics {
		if d.Check != "allow-audit" {
			t.Errorf("unexpected non-audit finding: %s", d)
			continue
		}
		stale = append(stale, d.Message)
	}
	if len(stale) != 1 || !strings.Contains(stale[0], "dtgp:allow(errflow)") {
		t.Errorf("stale promotion = %q, want exactly the unused errflow entry", stale)
	}
	// Filtered runs must not promote: staleness is undecidable there.
	rep, err = Vet(Options{Dir: dir, Patterns: []string{"./nothing"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("filtered run promoted stale allows: %v", rep.Diagnostics)
	}
}

// callgraphUnit finds a unit by its diagnostic name.
func callgraphUnit(t *testing.T, cg *CallGraph, name string) *Unit {
	t.Helper()
	var found *Unit
	for _, u := range cg.Units {
		if u.Name() == name {
			if found != nil {
				t.Fatalf("ambiguous unit name %q", name)
			}
			found = u
		}
	}
	if found == nil {
		t.Fatalf("no unit named %q", name)
	}
	return found
}

func calleeNames(u *Unit) []string {
	var names []string
	for _, c := range u.Callees {
		names = append(names, c.Name())
	}
	sort.Strings(names)
	return names
}

func hasCallee(u *Unit, name string) bool {
	for _, c := range u.Callees {
		if c.Name() == name {
			return true
		}
	}
	return false
}

// TestCallGraphEdges covers the issue's edge cases: direct calls, method
// calls, method values, closures handed to parallel.Pool.Run, and the
// conservative no-edge fallback for interface method calls.
func TestCallGraphEdges(t *testing.T) {
	prog, facts, _ := loadFixture(t, "callgraph")
	cg := facts.Interproc(prog).CG

	direct := callgraphUnit(t, cg, "Direct")
	if !hasCallee(direct, "helper") || !hasCallee(direct, "method") {
		t.Errorf("Direct callees = %v, want helper and method", calleeNames(direct))
	}

	// Method value: Dispatch passes t.method by name without calling it;
	// binding must still create the edge.
	dispatch := callgraphUnit(t, cg, "Dispatch")
	if !hasCallee(dispatch, "method") || !hasCallee(dispatch, "run") {
		t.Errorf("Dispatch callees = %v, want method (as method value) and run", calleeNames(dispatch))
	}

	// Interface method call: no static callee, conservative fallback means
	// no edge at all from the call site.
	viaIface := callgraphUnit(t, cg, "ViaIface")
	if hasCallee(viaIface, "method") {
		t.Errorf("ViaIface gained an edge through an interface call: %v", calleeNames(viaIface))
	}

	// Closure passed to parallel.Pool.Run: the literal is its own unit, the
	// parent binds it (edge parent -> literal), and the literal calls kernel.
	launch := callgraphUnit(t, cg, "Launch")
	if !hasCallee(launch, "func literal in Launch") {
		t.Errorf("Launch callees = %v, want its own func literal", calleeNames(launch))
	}
	lit := callgraphUnit(t, cg, "func literal in Launch")
	if !hasCallee(lit, "kernel") {
		t.Errorf("Launch literal callees = %v, want kernel", calleeNames(lit))
	}
}

// TestCallGraphSCC: mutual recursion lands Even and Odd in one component,
// and component numbering is reverse topological (callees first).
func TestCallGraphSCC(t *testing.T) {
	prog, facts, _ := loadFixture(t, "callgraph")
	ip := facts.Interproc(prog)
	cg := ip.CG

	even := callgraphUnit(t, cg, "Even")
	odd := callgraphUnit(t, cg, "Odd")
	if even.SCC != odd.SCC {
		t.Errorf("mutually recursive Even/Odd in different SCCs: %d vs %d", even.SCC, odd.SCC)
	}
	if n := len(cg.SCCs[even.SCC]); n != 2 {
		t.Errorf("Even/Odd component size = %d, want 2", n)
	}
	direct := callgraphUnit(t, cg, "Direct")
	helper := callgraphUnit(t, cg, "helper")
	if helper.SCC >= direct.SCC {
		t.Errorf("callee SCC %d not before caller SCC %d", helper.SCC, direct.SCC)
	}

	// SCC fixpoint: the mutual-recursion pair shares one summary bit-space;
	// a write in Even must be visible in Odd's summary and vice versa.
	se, so := ip.Summaries[even.Index], ip.Summaries[odd.Index]
	if !se.Writes.equal(so.Writes) {
		t.Errorf("mutual-recursion summaries diverge: Even writes %v, Odd writes %v", se.Writes, so.Writes)
	}
	empty := true
	for _, w := range se.Writes {
		if w != 0 {
			empty = false
		}
	}
	if empty {
		t.Errorf("Even/Odd joint summary lost the cached-field write")
	}
}
