package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// HotPragma is the annotation that marks a function as a steady-state hot
// path: hotalloc forbids new heap escapes inside it, and mapiter/floatdet
// treat it as a root of the deterministic region.
const HotPragma = "dtgp:hotpath"

// gradPragmaRE matches the gradient-pairing annotations consumed by the
// gradpair analyzer:
//
//	//dtgp:forward(<op>[, explicit-grad])
//	//dtgp:backward(<op>[, explicit-grad])
//	//dtgp:nondiff(<Field>[, <Field>...])
//
// forward/backward name the two halves of a hand-derived operator pair
// (both pragmas on one declaration mark a fused forward+backward).
// explicit-grad marks derivative-style pairs (the backward returns
// gradients rather than accumulating adjoints in place), which get
// pairing and signature checks only. nondiff declares forward input
// fields that intentionally have no adjoint (e.g. a hard, non-smoothed
// arrival time).
var gradPragmaRE = regexp.MustCompile(`dtgp:(forward|backward|nondiff)\(([^)]*)\)`)

// FuncInfo is the per-function fact record.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Hot marks functions carrying //dtgp:hotpath.
	Hot bool
	// HotReach marks functions reachable from a hot root through the
	// static reference graph (calls and function-value references,
	// module-internal only).
	HotReach bool
	// Refs are the module-internal functions this function calls or
	// references as values (deduplicated, in first-reference order).
	Refs []*types.Func

	// FwdOp / BwdOp carry the //dtgp:forward(op) / //dtgp:backward(op)
	// operator names ("" when unannotated); both set on one declaration
	// marks a fused forward+backward.
	FwdOp, BwdOp string
	// ExplicitGrad marks a derivative-style pair (explicit-grad flag).
	ExplicitGrad bool
	// Nondiff lists forward input fields declared intentionally
	// non-differentiated via //dtgp:nondiff(...).
	Nondiff []string
	// GradMalformed marks a forward/backward pragma that parsed without
	// an operator name.
	GradMalformed bool
}

// Facts is the whole-program fact base shared by every pass.
type Facts struct {
	// Funcs indexes every module function declaration by its object.
	Funcs map[*types.Func]*FuncInfo
	// order preserves deterministic declaration order for iteration.
	order []*FuncInfo

	// Escape-analysis data for hotalloc, populated by the driver (or a
	// test) before the passes run. EscapesValid distinguishes "collected
	// and empty" from "not collected" — hotalloc is a no-op in the latter
	// case.
	Escapes      []EscapeSite
	EscapesValid bool
	// HotAllow is the committed allowlist: function full name → allowed
	// escape messages. hotAllowUsed tracks which entries matched.
	HotAllow     map[string]map[string]bool
	hotAllowUsed map[string]map[string]bool
	// ProposedAllow collects ready-to-commit allowlist lines
	// ("funcKey\tmessage") for every unallowlisted hot escape, so
	// `dtgp-vet -emit-allow` can regenerate the file mechanically.
	ProposedAllow []string

	// inter is the memoised interprocedural layer (call graph + per-unit
	// side-effect summaries), built on first use via Facts.Interproc.
	inter *Interproc
	// idx is the memoised indexspace analysis (domain declarations,
	// annotations, flow results), built on first use via Facts.indexSpace.
	idx *indexState
	// reach is the memoised set of functions some program reaches, built
	// on first use via Facts.reached.
	reach map[*types.Func]bool
	// turned is the memoised set of struct fields some program sets,
	// built on first use via Facts.turnedFields.
	turned map[*types.Var]bool
}

// All returns every function record in declaration order.
func (f *Facts) All() []*FuncInfo { return f.order }

// ComputeFacts builds the fact base: declarations, hot-path annotations,
// the reference graph and its reachability closure.
func ComputeFacts(prog *Program) *Facts {
	facts := &Facts{Funcs: map[*types.Func]*FuncInfo{}}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg, Hot: hasPragma(fd, HotPragma)}
				parseGradPragmas(fi)
				facts.Funcs[obj] = fi
				facts.order = append(facts.order, fi)
			}
		}
	}
	// Reference edges: any use of a module function identifier inside a
	// body — plain calls, method calls, and function values handed to
	// dispatchers or stored in kernel fields.
	for _, fi := range facts.order {
		seen := map[*types.Func]bool{}
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := fi.Pkg.Info.Uses[id].(*types.Func)
			if !ok || seen[callee] {
				return true
			}
			if _, inModule := facts.Funcs[callee]; inModule {
				seen[callee] = true
				fi.Refs = append(fi.Refs, callee)
			}
			return true
		})
	}
	// Reachability closure from the hot roots.
	var queue []*FuncInfo
	for _, fi := range facts.order {
		if fi.Hot {
			fi.HotReach = true
			queue = append(queue, fi)
		}
	}
	for len(queue) > 0 {
		fi := queue[0]
		queue = queue[1:]
		for _, callee := range fi.Refs {
			if ci := facts.Funcs[callee]; ci != nil && !ci.HotReach {
				ci.HotReach = true
				queue = append(queue, ci)
			}
		}
	}
	return facts
}

// parseGradPragmas fills the gradient-pairing fields of fi from its doc
// comment.
func parseGradPragmas(fi *FuncInfo) {
	if fi.Decl.Doc == nil {
		return
	}
	for _, c := range fi.Decl.Doc.List {
		for _, m := range gradPragmaRE.FindAllStringSubmatch(c.Text, -1) {
			var parts []string
			for _, p := range strings.Split(m[2], ",") {
				if p = strings.TrimSpace(p); p != "" {
					parts = append(parts, p)
				}
			}
			switch m[1] {
			case "forward", "backward":
				op, explicit := "", false
				for _, p := range parts {
					if p == "explicit-grad" {
						explicit = true
					} else if op == "" {
						op = p
					}
				}
				if op == "" {
					fi.GradMalformed = true
				} else if m[1] == "forward" {
					fi.FwdOp = op
				} else {
					fi.BwdOp = op
				}
				fi.ExplicitGrad = fi.ExplicitGrad || explicit
			case "nondiff":
				fi.Nondiff = append(fi.Nondiff, parts...)
			}
		}
	}
}

// hasPragma reports whether the declaration's doc comment carries the given
// //dtgp:* pragma line.
func hasPragma(fd *ast.FuncDecl, pragma string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if strings.HasPrefix(strings.TrimSpace(text), pragma) {
			return true
		}
	}
	return false
}

// funcKey is the stable allowlist/report key for a function, e.g.
// "(*dtgp/internal/core.Timer).forward" or "dtgp/internal/rsmt.BuildInto".
func funcKey(obj *types.Func) string { return obj.FullName() }
