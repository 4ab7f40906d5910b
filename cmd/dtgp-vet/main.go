// Command dtgp-vet runs the repo's static-analysis suite: ten analyzers
// (mapiter, parsafe, hotalloc, floatdet, gradpair, errflow, dirtymark,
// indexspace, unreached, unturned) that enforce the determinism,
// parallel-safety, zero-allocation, gradient-pairing, error-handling,
// incremental-state coherence and index-domain invariants of the placement
// and timing hot paths, that every function of the module is reached from
// a program, and that some program sets every option field. See
// internal/analysis for the checks and DESIGN.md §6, §10, §12, §20 and §21
// for why each invariant exists.
//
// parsafe, hotalloc and dirtymark are interprocedural: a call graph over the
// whole module (direct calls, method calls, method values, closures handed
// to parallel dispatch) feeds bottom-up per-function side-effect summaries,
// so a write or heap escape buried in a helper is attributed through the
// chain of callers that reaches hot or cached state.
//
// dirtymark consumes //dtgp:cached annotations on struct fields:
//
//	//dtgp:cached by=<marker>[,<marker>...]
//
// where each marker is a function or method name (Recv.Method for methods)
// in the field's package. Every write to the field — direct or through any
// chain of helpers — must sit on a CFG path that also calls one of the
// declared markers (before or after the write); a write that can reach a
// read of the cache without a refresh is reported at the write site. Writes
// inside a marker itself (and helpers that only markers call) are exempt:
// they are the refresh.
//
// indexspace types the integer index spaces of the SoA flow. Domains are
// declared once, anywhere in the module (duplicates are errors):
//
//	//dtgp:indexdomain <name> [cap=<N>] [alias=<other>]
//
// where cap is the largest population the domain reaches at paper scale
// (1.9M cells) and alias declares a second name for the same space.
// Containers, struct fields and locals are annotated with a trailing
// comment (or one on the line above):
//
//	//dtgp:index domain=<d> [elem=<e>]
//
// domain=<d> says the container is subscripted by <d>; elem=<e> says its
// elements are themselves indices into <e>. Functions declare parameter and
// result domains in their doc comment:
//
//	//dtgp:index <param>=<spec> [<param>=<spec>...] [return=<spec>]
//
// with <spec> one of <d> (an index), []<e> (a slice of indices into e), or
// <d>[]<e> (a container subscripted by d holding indices into e). A
// flow-sensitive abstract interpretation propagates these domains through
// locals, range loops, arithmetic and calls, and reports subscripts whose
// value domain does not match the container, int→int32 narrowings of
// values with no capacity fact below 2³¹, and index arithmetic whose
// capacity bound overflows int32. Unannotated values and containers are
// never flagged (gradual typing).
//
// Usage:
//
//	dtgp-vet [-C dir] [-allow file] [-noescapes] [-emit-allow] [-json] [-stats] [-strict-budget] [packages]
//
// Packages are go-style patterns relative to the module root (default
// ./...); the whole module is always loaded — patterns only filter which
// packages' findings are reported.
//
// Exit codes:
//
//	0  clean (no unsuppressed findings)
//	1  findings remain after //dtgp:allow(<check>) suppressions
//	2  usage or load error (bad flags, unparseable or untypeable module)
//
// Suppressions are audited: a //dtgp:allow(<check>) comment that no longer
// suppresses any finding, or a hotalloc.allow entry no escape matches, is
// itself reported as a hard allow-audit finding on unfiltered runs (hotalloc
// entries only when escape analysis ran), so dead annotations cannot
// accumulate.
//
// With -json every diagnostic — suppressed ones included — is printed as
// one JSON object per line: {"file","line","check","message","suppressed"};
// the exit code still counts only unsuppressed findings.
//
// With -stats the wall time of each analyzer (and of the load/facts/escapes
// driver phases) is reported after the findings — as {"stat","millis"}
// objects under -json, as an aligned table on stderr otherwise. Each time
// is compared against the committed per-analyzer baseline in
// internal/analysis/vet-budget.json: exceeding 2× baseline prints a soft
// warning on stderr, and under -strict-budget (the CI budget gate) it also
// fails the run with exit code 1. A baseline key that names no analyzer and
// no driver phase (a deleted analyzer's leftover), and an analyzer or phase
// with no baseline (a new analyzer's missing budget), are reported the same
// way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dtgp/internal/analysis"
)

func main() {
	var (
		dir       = flag.String("C", ".", "directory inside the module to vet")
		allowFile = flag.String("allow", "", "hotalloc allowlist path (default <module>/internal/analysis/hotalloc.allow)")
		noEscapes = flag.Bool("noescapes", false, "skip the hotalloc escape-analysis check (no `go build` subprocess)")
		emitAllow = flag.Bool("emit-allow", false, "print hotalloc allowlist lines covering every reported escape and exit")
		jsonOut   = flag.Bool("json", false, "print one JSON diagnostic per line (suppressed findings included)")
		quiet     = flag.Bool("q", false, "suppress the success summary")
		stats     = flag.Bool("stats", false, "report per-analyzer wall time and check it against the committed budget")
		budgetF   = flag.String("budget", "", "per-analyzer time-budget path (default <module>/internal/analysis/vet-budget.json)")
		strict    = flag.Bool("strict-budget", false, "with -stats: fail (exit 1) if any analyzer exceeds 2x its committed baseline")
	)
	flag.Parse()

	rep, err := analysis.Vet(analysis.Options{
		Dir:       *dir,
		Patterns:  flag.Args(),
		Escapes:   !*noEscapes,
		AllowFile: *allowFile,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "dtgp-vet: %v\n", err)
		os.Exit(2)
	}
	if *emitAllow {
		// Ready-to-append hotalloc.allow lines for every escape not yet
		// covered; review each before committing — the allowlist is for
		// guarded warm-up growth and error paths, not steady-state allocs.
		for _, p := range rep.ProposedAllow {
			fmt.Println(p)
		}
		if len(rep.ProposedAllow) > 0 {
			os.Exit(1)
		}
		return
	}
	// Budget check: compare measured analyzer times against the committed
	// baseline. Soft warning by default; a hard failure under -strict-budget.
	var overBudget []analysis.BudgetViolation
	var staleKeys, missingKeys []string
	if *stats {
		path := *budgetF
		if path == "" {
			root, _, err := analysis.ModuleRoot(*dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dtgp-vet: %v\n", err)
				os.Exit(2)
			}
			path = filepath.Join(root, "internal", "analysis", "vet-budget.json")
		}
		budget, err := analysis.LoadBudget(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtgp-vet: %v\n", err)
			os.Exit(2)
		}
		overBudget = analysis.OverBudget(rep.Stats, budget)
		staleKeys = budget.UnknownKeys()
		missingKeys = budget.MissingKeys()
	}
	fail := len(rep.Diagnostics) > 0 || (*strict && len(overBudget)+len(staleKeys)+len(missingKeys) > 0)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		for _, list := range [2][]analysis.Diagnostic{rep.Diagnostics, rep.Suppressed} {
			for _, d := range list {
				if err := enc.Encode(jsonDiag{
					File:       d.Position.Filename,
					Line:       d.Position.Line,
					Check:      d.Check,
					Message:    d.Message,
					Suppressed: d.Suppressed,
				}); err != nil {
					fmt.Fprintf(os.Stderr, "dtgp-vet: %v\n", err)
					os.Exit(2)
				}
			}
		}
		if *stats {
			for _, s := range rep.Stats {
				if err := enc.Encode(jsonStat{Stat: s.Name, Millis: s.Millis}); err != nil {
					fmt.Fprintf(os.Stderr, "dtgp-vet: %v\n", err)
					os.Exit(2)
				}
			}
		}
		warnBudget(overBudget, staleKeys, missingKeys, *strict)
		if fail {
			os.Exit(1)
		}
		return
	}
	if len(rep.Diagnostics) > 0 {
		for _, d := range rep.Diagnostics {
			fmt.Println(d)
		}
		fmt.Fprintf(os.Stderr, "dtgp-vet: %d finding(s)\n", len(rep.Diagnostics))
	}
	if *stats {
		for _, s := range rep.Stats {
			fmt.Fprintf(os.Stderr, "dtgp-vet: stat %-12s %8.1fms\n", s.Name, s.Millis)
		}
	}
	warnBudget(overBudget, staleKeys, missingKeys, *strict)
	if fail {
		os.Exit(1)
	}
	if !*quiet {
		fmt.Println("dtgp-vet: ok")
	}
}

// warnBudget reports budget violations, stale baseline keys and analyzers
// or phases with no baseline on stderr. Under -strict-budget the caller
// turns them into a failing exit code (the CI gate); otherwise they are
// advisory.
func warnBudget(over []analysis.BudgetViolation, staleKeys, missingKeys []string, strict bool) {
	severity := "warning"
	if strict {
		severity = "error"
	}
	for _, v := range over {
		fmt.Fprintf(os.Stderr, "dtgp-vet: budget %s: %s\n", severity, v)
	}
	for _, k := range staleKeys {
		fmt.Fprintf(os.Stderr, "dtgp-vet: budget %s: baseline %q names no analyzer and no driver phase (delete it from internal/analysis/vet-budget.json)\n", severity, k)
	}
	for _, k := range missingKeys {
		fmt.Fprintf(os.Stderr, "dtgp-vet: budget %s: %q has no baseline (add one to internal/analysis/vet-budget.json at several times a measured run)\n", severity, k)
	}
}

// jsonDiag is the -json wire format, one object per line.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Check      string `json:"check"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

// jsonStat is the -json -stats wire format: one timing object per analyzer
// or driver phase, after all diagnostics. The "stat" key (vs "check")
// distinguishes timing lines from findings.
type jsonStat struct {
	Stat   string  `json:"stat"`
	Millis float64 `json:"millis"`
}
