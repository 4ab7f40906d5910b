package analysis

import (
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// All is the dtgp analyzer suite in report order.
var All = []*Analyzer{DirtyMark, ErrFlow, FloatDet, GradPair, HotAlloc, IndexSpace, MapIter, MinMax, ParSafe, Unreached, Unturned}

// Options configure one Vet run.
type Options struct {
	// Dir is any directory inside the module to vet; the module root is
	// found by walking up to go.mod. Defaults to ".".
	Dir string
	// Patterns restrict which packages' findings are reported, in go-tool
	// syntax relative to the module root: "./..." (default), "./x/...",
	// "./x". The whole module is always loaded and analyzed — hot-path
	// reachability is cross-package — only reporting is filtered.
	Patterns []string
	// Escapes enables the hotalloc analyzer, which shells out to
	// `go build -gcflags=-m`. On by default in the CLI; tests that only
	// exercise the AST analyzers switch it off.
	Escapes bool
	// AllowFile overrides the hotalloc allowlist path. Default:
	// <module root>/internal/analysis/hotalloc.allow.
	AllowFile string
}

// Report is the outcome of a Vet run.
type Report struct {
	// Diagnostics are the surviving (unsuppressed) findings; any entry
	// here fails the run.
	Diagnostics []Diagnostic
	// Suppressed are findings covered by //dtgp:allow annotations, kept
	// for audit output (dtgp-vet -json).
	Suppressed []Diagnostic
	// ProposedAllow holds sorted, deduplicated hotalloc allowlist lines
	// covering every reported escape (for `dtgp-vet -emit-allow`).
	ProposedAllow []string
	// Stats records the wall time of each analyzer (summed across
	// packages) plus the "load", "facts" and "escapes" driver phases, in
	// run order. Compared against internal/analysis/vet-budget.json by
	// `dtgp-vet -stats` and the CI budget gate.
	Stats []AnalyzerStat
}

// Vet loads the module around opts.Dir, runs the analyzer suite and
// returns the surviving (non-suppressed) findings.
func Vet(opts Options) (*Report, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	root, modPath, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	var stats []AnalyzerStat
	phase := func(name string, start time.Time) {
		stats = append(stats, AnalyzerStat{Name: name, Millis: float64(time.Since(start)) / float64(time.Millisecond)})
	}
	start := time.Now()
	prog, err := Load(Mapping{Prefix: modPath, Dir: root})
	if err != nil {
		return nil, err
	}
	phase("load", start)
	start = time.Now()
	facts := ComputeFacts(prog)
	phase("facts", start)

	allowFile := opts.AllowFile
	if allowFile == "" {
		allowFile = filepath.Join(root, "internal", "analysis", "hotalloc.allow")
	}
	if opts.Escapes {
		start = time.Now()
		cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
		cmd.Dir = root
		out, err := cmd.CombinedOutput()
		if err != nil {
			return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
		}
		facts.Escapes = ParseEscapes(string(out), root)
		facts.EscapesValid = true
		facts.HotAllow, err = LoadHotAllow(allowFile)
		if err != nil {
			return nil, err
		}
		phase("escapes", start)
	}

	match := matchPatterns(modPath, opts.Patterns)
	diags, suppressed, allows, timings, err := runAnalyzersRecording(prog, facts, All, match)
	if err != nil {
		return nil, err
	}
	rep := &Report{Diagnostics: diags, Suppressed: suppressed, Stats: append(stats, timings...)}
	if match == nil {
		// Stale //dtgp:allow annotations are hard findings, but only on an
		// unfiltered run: a filtered run skips the other packages' analyzer
		// passes, so their suppressions would all look unused. hotalloc (and
		// blanket "all") entries are only decidable when escape data was
		// collected — without it the analyzer reports nothing to suppress.
		for _, e := range allows.unused() {
			if !opts.Escapes && (e.check == "hotalloc" || e.check == "all") {
				continue
			}
			rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
				Check:    "allow-audit",
				Position: e.pos,
				Message: fmt.Sprintf(
					"stale //dtgp:allow(%s): no %s finding is suppressed here (the issue was fixed or the code moved; delete the annotation)",
					e.check, e.check),
			})
		}
		sortDiagnostics(rep.Diagnostics)
	}
	if opts.Escapes {
		// Staleness is only decidable on an unfiltered run: a filtered run
		// never visits the other packages, so their entries would all look
		// unused. On whole-tree runs a stale entry is a hard finding — a
		// rotting allowlist line either hides a fixed escape or papers
		// over a rename.
		if match == nil {
			lines := hotAllowEntryLines(allowFile)
			for _, entry := range facts.StaleHotAllow() {
				rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
					Check:    "hotalloc",
					Position: token.Position{Filename: allowFile, Line: lines[entry]},
					Message: fmt.Sprintf(
						"stale allowlist entry (escape no longer reported; delete the line): %s",
						strings.ReplaceAll(entry, "\t", " — ")),
				})
			}
			sortDiagnostics(rep.Diagnostics)
		}
		seen := map[string]bool{}
		for _, p := range facts.ProposedAllow {
			if !seen[p] {
				seen[p] = true
				rep.ProposedAllow = append(rep.ProposedAllow, p)
			}
		}
		sort.Strings(rep.ProposedAllow)
	}
	return rep, nil
}

// runAnalyzersRecording runs the given analyzers over every loaded package
// whose import path passes the filter and applies dtgp:allow suppressions.
// It returns the surviving and the suppressed findings, each sorted by
// position; the allow-annotation set with per-entry usage recorded, so the
// driver can promote stale suppressions to findings; and the per-analyzer
// wall times (summed across packages, in analyzer run order) for the -stats
// budget report. Identical findings are deduplicated: a named kernel
// dispatched from several call sites, or an operator pair cross-checked
// from both halves' packages, must report once.
func runAnalyzersRecording(prog *Program, facts *Facts, analyzers []*Analyzer, match func(pkgPath string) bool) (kept, suppressed []Diagnostic, allows *allowSet, timings []AnalyzerStat, err error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	elapsed := make([]time.Duration, len(analyzers))
	for _, pkg := range prog.Pkgs {
		if match != nil && !match(pkg.Path) {
			continue
		}
		for ai, a := range analyzers {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, Facts: facts, report: collect}
			start := time.Now()
			if err := a.Run(pass); err != nil {
				return nil, nil, nil, nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
			elapsed[ai] += time.Since(start)
		}
	}
	for ai, a := range analyzers {
		timings = append(timings, AnalyzerStat{Name: a.Name, Millis: float64(elapsed[ai]) / float64(time.Millisecond)})
	}
	seen := map[Diagnostic]bool{}
	allows = collectAllows(prog)
	for _, d := range diags {
		if seen[d] {
			continue
		}
		seen[d] = true
		if allows.suppressed(d) {
			d.Suppressed = true
			suppressed = append(suppressed, d)
		} else {
			kept = append(kept, d)
		}
	}
	sortDiagnostics(kept)
	sortDiagnostics(suppressed)
	return kept, suppressed, allows, timings, nil
}

// matchPatterns compiles go-style package patterns into a path filter.
func matchPatterns(modPath string, patterns []string) func(string) bool {
	if len(patterns) == 0 {
		return nil
	}
	type rule struct {
		prefix string // match prefix (for /... patterns) or exact path
		tree   bool
	}
	var rules []rule
	for _, p := range patterns {
		switch {
		case p == "./..." || p == "all" || p == modPath+"/...":
			return nil // everything
		case strings.HasSuffix(p, "/..."):
			base := strings.TrimSuffix(p, "/...")
			rules = append(rules, rule{prefix: resolvePattern(modPath, base), tree: true})
		default:
			rules = append(rules, rule{prefix: resolvePattern(modPath, p)})
		}
	}
	return func(pkgPath string) bool {
		for _, r := range rules {
			if pkgPath == r.prefix || (r.tree && strings.HasPrefix(pkgPath, r.prefix+"/")) {
				return true
			}
		}
		return false
	}
}

func resolvePattern(modPath, p string) string {
	p = strings.TrimPrefix(p, "./")
	p = strings.TrimSuffix(p, "/")
	if p == "" || p == "." {
		return modPath
	}
	if strings.HasPrefix(p, modPath) {
		return p
	}
	return modPath + "/" + p
}
