// Package analysis is dtgp's in-tree static-analysis framework: a small
// go/ast + go/types driver (stdlib only — no golang.org/x/tools) with a
// go/analysis-style Analyzer interface, plus the ten project analyzers
// that turn the repo's determinism, parallel-safety, zero-allocation,
// gradient-correctness, cache-coherence, index-domain, reachability and
// option-use conventions into build failures:
//
//   - mapiter:  no `range` over a map in any function reachable from a
//     //dtgp:hotpath root — map iteration order is nondeterministic and
//     would break bit-identical placements across runs and worker counts.
//   - parsafe:  function literals passed to parallel.For*/Run must not
//     write captured variables non-disjointly, must not dispatch nested
//     pool work, and must not call non-reentrant APIs (global math/rand).
//   - hotalloc: functions annotated //dtgp:hotpath must not introduce heap
//     escapes beyond the committed allowlist (checked against parsed
//     `go build -gcflags=-m` escape-analysis output).
//   - floatdet: no floating-point accumulation across the iterations of a
//     map range — the summation order, and therefore the rounded result,
//     would depend on map iteration order.
//   - gradpair: //dtgp:forward/backward-annotated operator pairs must be
//     complete, signature-consistent, and — for adjoint-style pairs —
//     accumulate an adjoint for every differentiable input the forward
//     reads (flow-sensitively, over the function CFG).
//   - errflow: no error value assigned from a call may be dead at its
//     definition (dropped or silently overwritten).
//   - dirtymark: every write to a //dtgp:cached struct field — direct or
//     through any helper chain — must sit on a CFG path that also calls
//     one of the field's declared refresh markers, so incrementally
//     maintained state cannot go silently stale.
//   - indexspace: //dtgp:indexdomain declares the typed index spaces of
//     the SoA flow (cell, net, pin, tnode, …) with paper-scale capacity
//     facts; //dtgp:index annotates containers, fields, params and
//     results. A flow-sensitive abstract domain over integer locals then
//     flags domain-mismatched subscripts, unguarded int→int32 narrowing
//     of values with no capacity bound, and index arithmetic that can
//     overflow int32 at 1.9M cells. Unannotated code is never flagged.
//   - unreached: every module function must be reached from the main
//     function of some program (cmd/*, examples/*, benchmark/) through the
//     call graph, an init, a package-level variable's initializer, or an
//     interface method name; code only tests reach goes into a _test.go
//     file or carries a //dtgp:allow(unreached) naming those tests.
//   - unturned: some program sets every exported field of a Default…-built
//     options struct outside that Default… function and outside a
//     normalisation; a knob nothing turns becomes a constant or carries a
//     //dtgp:allow(unturned) naming who needs it.
//
// gradpair, errflow, dirtymark and indexspace are flow-sensitive, built on
// the in-package dataflow engine (cfg.go, dataflow.go, cells.go): a
// per-function CFG with short-circuit decomposition and defer/panic
// modelling, plus a generic gen/kill worklist solver instantiated as
// reaching-definitions and liveness.
//
// Diagnostics are position-accurate and individually suppressible with a
// trailing or preceding `//dtgp:allow(<check>)` comment.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one named check, mirroring the x/tools go/analysis
// shape so checks stay portable if the repo ever adopts the real driver.
type Analyzer struct {
	Name string // short kebab/lower name used in reports and dtgp:allow
	Doc  string // one-paragraph description of what the check enforces
	// Run inspects one package and reports findings through pass.Report.
	Run func(pass *Pass) error
}

// A Pass carries one analyzer invocation over one package, plus the
// whole-program facts every dtgp analyzer needs (hot-path reachability is
// inherently cross-package).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Facts    *Facts
	report   func(Diagnostic)
}

// Fset returns the program-wide file set.
func (p *Pass) Fset() *token.FileSet { return p.Prog.Fset }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Prog.Fset.Position(pos), format, args...)
}

// reportAt records a diagnostic at an already-resolved position (used by
// hotalloc, whose positions come from compiler output, not the FileSet).
func (p *Pass) reportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Check:    p.Analyzer.Name,
		Position: pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Check    string
	Position token.Position
	Message  string
	// Suppressed marks findings covered by a //dtgp:allow annotation;
	// they are excluded from Report.Diagnostics (and the exit code) but
	// surfaced by `dtgp-vet -json` so tooling can audit suppressions.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Check, d.Message)
}

// sortDiagnostics orders findings by (file, line, column, check, message).
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// ---------------------------------------------------------------------------
// Suppressions.

// allowRE matches directive-style annotations only: the comment must begin
// with dtgp:allow (like any Go directive), so prose that merely mentions
// //dtgp:allow(check) — analyzer docs, finding messages — is not a
// suppression and cannot go stale.
var allowRE = regexp.MustCompile(`^/[/*]\s*dtgp:allow\(([a-zA-Z0-9_,\- ]+)\)`)

// An allowEntry is one check name of one //dtgp:allow annotation, with its
// source position and whether it suppressed anything this run. Entries that
// suppress nothing on a whole-tree run are themselves findings: a stale
// suppression either hides a fixed issue or papers over moved code.
type allowEntry struct {
	check string
	pos   token.Position
	used  bool
}

// allowSet indexes allow entries by file name and line.
type allowSet struct {
	lines   map[string]map[int][]*allowEntry
	entries []*allowEntry // source order, for stable stale reporting
}

// collectAllows scans every comment of every loaded file for
// //dtgp:allow(check[,check...]) annotations.
func collectAllows(prog *Program) *allowSet {
	as := &allowSet{lines: map[string]map[int][]*allowEntry{}}
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := allowRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					if as.lines[pos.Filename] == nil {
						as.lines[pos.Filename] = map[int][]*allowEntry{}
					}
					for _, name := range strings.Split(m[1], ",") {
						e := &allowEntry{check: strings.TrimSpace(name), pos: pos}
						as.lines[pos.Filename][pos.Line] = append(as.lines[pos.Filename][pos.Line], e)
						as.entries = append(as.entries, e)
					}
				}
			}
		}
	}
	return as
}

// suppressed reports whether d is covered by a dtgp:allow annotation on the
// same line or on the line directly above it, marking every covering entry
// used.
func (as *allowSet) suppressed(d Diagnostic) bool {
	lines := as.lines[d.Position.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, ln := range [2]int{d.Position.Line, d.Position.Line - 1} {
		for _, e := range lines[ln] {
			if e.check == d.Check || e.check == "all" {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

// unused returns the entries that suppressed nothing, in source order.
func (as *allowSet) unused() []*allowEntry {
	var stale []*allowEntry
	for _, e := range as.entries {
		if !e.used {
			stale = append(stale, e)
		}
	}
	return stale
}

// ---------------------------------------------------------------------------
// Small AST helpers shared by the analyzers.

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// within reports whether pos lies inside node's source extent.
func within(pos token.Pos, node ast.Node) bool {
	return node.Pos() <= pos && pos < node.End()
}
