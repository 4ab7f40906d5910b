package analysis

// indexspace: typed index-domain and int32-overflow analysis.
//
// Every hot array in this repo is a flat SoA column indexed by a bare
// int32/int drawn from one of roughly ten distinct index spaces (cell,
// net, pin, tnode, level, snode, ...). At the paper's 0.8M–1.9M cell
// scale a cell index silently used as a net index, or an int64 index
// expression silently truncated to int32, corrupts placement state with
// no runtime signal. indexspace turns the convention into a checked
// discipline.
//
// Annotation grammar (directive comments, like dtgp:allow):
//
//	//dtgp:indexdomain <name> [cap=<N>] [alias=<other>]
//
// declares an index domain anywhere in the module (canonical declarations
// live in internal/netlist/domains.go). cap is the maximum population the
// domain can reach at paper scale — the capacity fact the overflow and
// narrowing checks compute with. alias declares <name> as another name
// for an existing domain (RC-tree nodes coincide with Steiner nodes by
// construction). The domain `any` is predeclared: it is compatible with
// every domain and has no capacity fact (for generic containers).
//
//	//dtgp:index domain=<d> [elem=<e>]
//	//dtgp:index elem=<e>
//
// on a struct field or variable declaration (doc comment or trailing
// same-line comment). On an integer declaration, domain=<d> states the
// value is an index into <d>. On a slice/array/map declaration, domain=<d>
// states the container is subscripted by <d> values, and elem=<e> states
// the integer elements (through any nesting depth) are indexes into <e>.
//
//	//dtgp:index <param>=<spec> [<param>=<spec>...]
//
// on a function declaration's doc comment, where <param> is a parameter
// name or return/return2/... for results, and <spec> is <d> (integer:
// value domain; container: subscript domain), []<e> (element domain), or
// <d>[]<e> (both).
//
// The analyzer runs a flow-sensitive abstract interpretation over each
// unit's CFG, propagating domains through assignments, range loops,
// slice/worklist pops and conversions, and — bottom-up over the PR 7
// call-graph SCCs — across function boundaries: explicitly annotated
// parameters and results seed the summaries, and unannotated integer
// parameters that are used (untainted) to subscript an annotated
// container get their requirement inferred, so a mixed-up argument is
// reported at the call site. Three finding classes:
//
//	(a) cross-domain: subscripting a domain=X container with a domain=Y
//	    value (or passing/assigning/appending/returning one where the
//	    other is declared);
//	(b) narrowing: int/int64 → int32 (or narrower) conversion of an
//	    index-domain value whose capacity fact does not fit the target,
//	    with no dominating bounds guard (i < n, i <= n, range loop);
//	(c) overflow: 32-bit index arithmetic (a*b, a<<k, offset sums) whose
//	    len/cap-derived upper bound exceeds the type's maximum.
//
// Unknown domains stay unknown: the analysis is gradual and only reports
// where both sides of a judgement are established, so unannotated code
// is never flagged.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"math"
	"path/filepath"
	"regexp"
	"strings"
)

// IndexSpace is the analyzer instance.
var IndexSpace = &Analyzer{
	Name: "indexspace",
	Doc: "typed index-domain discipline for SoA arrays: cross-domain subscripts, " +
		"unguarded int32 narrowing, and 32-bit index-arithmetic overflow against " +
		"declared domain capacities",
	Run: runIndexSpace,
}

var (
	// indexDomainRE matches the domain declaration directive. indexAnnRE
	// requires whitespace immediately after "dtgp:index" so it cannot match
	// the longer dtgp:indexdomain directive.
	indexDomainRE = regexp.MustCompile(`^/[/*]\s*dtgp:indexdomain\s+(\S.*)$`)
	indexAnnRE    = regexp.MustCompile(`^/[/*]\s*dtgp:index\s+(\S.*)$`)
	// indexPairRE parses one key=value token of a dtgp:index annotation:
	// value is <d>, []<e>, or <d>[]<e>.
	indexPairRE = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)=([A-Za-z_][A-Za-z0-9_]*)?(\[\]([A-Za-z_][A-Za-z0-9_]*))?$`)
)

func runIndexSpace(pass *Pass) error {
	st := pass.Facts.indexSpace(pass.Prog)
	for _, d := range st.diags {
		if d.pkg == pass.Pkg {
			pass.Reportf(d.pos, "%s", d.msg)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// State.

// idxDomain is one declared index domain.
type idxDomain struct {
	name  string
	cap   int64 // maximum population; 0 = no capacity fact
	pos   token.Pos
	alias *idxDomain // canonical domain when declared via alias=
}

// canon follows alias links to the canonical domain.
func (d *idxDomain) canon() *idxDomain {
	for d.alias != nil {
		d = d.alias
	}
	return d
}

// idxAnn is the abstract value of one declaration or expression: val is the
// domain of an integer value, by the subscript domain of a container, elem
// the domain of the container's eventual integer elements. nil = unknown.
type idxAnn struct {
	val, by, elem *idxDomain
}

func (a idxAnn) zero() bool { return a.val == nil && a.by == nil && a.elem == nil }

// idxDiag is one pending finding with package attribution, reported when
// the analyzer pass for that package runs.
type idxDiag struct {
	pkg *Package
	pos token.Pos
	msg string
}

// idxComment is one dtgp:index annotation comment, tracked so annotations
// that attach to no supported declaration are themselves findings.
type idxComment struct {
	pkg      *Package
	pos      token.Pos
	pairs    [][2]string // key=value tokens, in order
	malfor   bool
	consumed bool
}

// idxSummary is the interprocedural summary of one call-graph unit.
type idxSummary struct {
	// params are the declared parameter annotations (positional, receiver
	// excluded); reqs the inferred subscript requirements for parameters
	// without a declared value domain.
	params []idxAnn
	reqs   []*idxDomain
	// reqConflict marks parameters whose inferred requirements disagreed;
	// they impose no obligation on callers.
	reqConflict []bool
	// results are declared-or-inferred result annotations.
	results  []idxAnn
	declared []bool // results[i] was declared, not inferred
	variadic bool
}

// indexState is the memoised whole-program indexspace analysis.
type indexState struct {
	prog    *Program
	facts   *Facts
	cg      *CallGraph
	domains map[string]*idxDomain
	anyDom  *idxDomain
	// varAnn holds annotations on struct fields and package-level vars;
	// localAnn those applied to locals via same/previous-line comments.
	varAnn   map[*types.Var]idxAnn
	localAnn map[*types.Var]idxAnn
	// lineAnn indexes every dtgp:index comment by file and line for
	// local-declaration attachment.
	lineAnn  map[string]map[int]*idxComment
	comments []*idxComment
	// declResults holds declared result annotations keyed by function,
	// merged into summaries when they are built.
	declResults map[declResultKey]idxAnn
	summaries   []*idxSummary
	paramVars   [][]*types.Var
	// tainted[u] marks parameters of unit u that are reassigned or
	// address-taken (they no longer carry the caller's value).
	tainted []map[*types.Var]bool
	cfgs    []*CFG
	diags   []idxDiag
}

// indexSpace returns the memoised analysis, building it on first use.
func (f *Facts) indexSpace(prog *Program) *indexState {
	if f.idx == nil {
		f.idx = buildIndexState(prog, f)
	}
	return f.idx
}

func buildIndexState(prog *Program, facts *Facts) *indexState {
	st := &indexState{
		prog:     prog,
		facts:    facts,
		cg:       facts.Interproc(prog).CG,
		domains:  map[string]*idxDomain{},
		varAnn:   map[*types.Var]idxAnn{},
		localAnn: map[*types.Var]idxAnn{},
		lineAnn:  map[string]map[int]*idxComment{},
	}
	st.anyDom = &idxDomain{name: "any"}
	st.domains["any"] = st.anyDom
	st.collectDomains()
	st.collectAnnotations()
	st.computeSummaries()
	for _, u := range st.cg.Units {
		st.analyzeUnit(u, true)
	}
	st.auditComments()
	return st
}

func (st *indexState) errf(pkg *Package, pos token.Pos, format string, args ...any) {
	st.diags = append(st.diags, idxDiag{pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
}

// ---------------------------------------------------------------------------
// Domain and annotation collection.

// commentText strips a trailing */ so block-comment directives parse like
// line comments.
func commentText(c *ast.Comment) string {
	return strings.TrimSuffix(strings.TrimSpace(c.Text), "*/")
}

// collectDomains scans every comment of every file for dtgp:indexdomain
// declarations, then resolves aliases (two passes, so an alias may precede
// its target in source order).
func (st *indexState) collectDomains() {
	type pending struct {
		d     *idxDomain
		alias string
		pkg   *Package
	}
	var aliases []pending
	for _, pkg := range st.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := indexDomainRE.FindStringSubmatch(commentText(c))
					if m == nil {
						continue
					}
					fields := strings.Fields(m[1])
					name := fields[0]
					if !isDomainName(name) {
						st.errf(pkg, c.Pos(), "malformed //dtgp:indexdomain: %q is not a valid domain name", name)
						continue
					}
					if prev, dup := st.domains[name]; dup {
						ppos := st.prog.Fset.Position(prev.pos)
						st.errf(pkg, c.Pos(), "duplicate //dtgp:indexdomain %s (first declared at %s:%d)",
							name, filepath.Base(ppos.Filename), ppos.Line)
						continue
					}
					d := &idxDomain{name: name, pos: c.Pos()}
					bad := false
					for _, kv := range fields[1:] {
						k, v, ok := strings.Cut(kv, "=")
						switch {
						case !ok:
							bad = true
						case k == "cap":
							var n int64
							if _, err := fmt.Sscanf(v, "%d", &n); err != nil || n <= 0 {
								bad = true
							} else {
								d.cap = n
							}
						case k == "alias":
							aliases = append(aliases, pending{d: d, alias: v, pkg: pkg})
						default:
							bad = true
						}
					}
					if bad {
						st.errf(pkg, c.Pos(), "malformed //dtgp:indexdomain %s: want [cap=<N>] [alias=<name>]", name)
						continue
					}
					st.domains[name] = d
				}
			}
		}
	}
	for _, p := range aliases {
		tgt, ok := st.domains[p.alias]
		if !ok {
			st.errf(p.pkg, p.d.pos, "//dtgp:indexdomain %s: alias target %q is not a declared domain", p.d.name, p.alias)
			continue
		}
		if p.d.cap != 0 {
			st.errf(p.pkg, p.d.pos, "//dtgp:indexdomain %s: alias declarations take their cap from the target", p.d.name)
		}
		p.d.alias = tgt
	}
}

func isDomainName(s string) bool {
	for i, r := range s {
		switch {
		case r == '_', 'a' <= r && r <= 'z', 'A' <= r && r <= 'Z':
		case i > 0 && '0' <= r && r <= '9':
		default:
			return false
		}
	}
	return s != ""
}

// lookupDomain resolves a domain name to its canonical domain, reporting
// unknown names at pos.
func (st *indexState) lookupDomain(pkg *Package, pos token.Pos, name string) *idxDomain {
	if name == "" {
		return nil
	}
	d, ok := st.domains[name]
	if !ok {
		st.errf(pkg, pos, "unknown index domain %q (declare it with //dtgp:indexdomain)", name)
		return nil
	}
	return d.canon()
}

// collectAnnotations indexes every dtgp:index comment, then applies the
// ones attached to struct fields, package-level variables, and function
// declarations. Remaining comments are candidates for local-declaration
// attachment during unit analysis; any still unconsumed afterwards is an
// error (auditComments).
func (st *indexState) collectAnnotations() {
	for _, pkg := range st.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := indexAnnRE.FindStringSubmatch(commentText(c))
					if m == nil {
						continue
					}
					ic := &idxComment{pkg: pkg, pos: c.Pos()}
					for _, tok := range strings.Fields(m[1]) {
						pm := indexPairRE.FindStringSubmatch(tok)
						if pm != nil && pm[2] == "" && pm[3] == "" {
							pm = nil
						}
						if pm == nil {
							ic.malfor = true
							st.errf(pkg, c.Pos(), "malformed //dtgp:index token %q: want key=<d>, key=[]<e>, or key=<d>[]<e>", tok)
							continue
						}
						ic.pairs = append(ic.pairs, [2]string{pm[1], pm[2] + pm[3]})
					}
					st.comments = append(st.comments, ic)
					pos := st.prog.Fset.Position(c.Pos())
					if st.lineAnn[pos.Filename] == nil {
						st.lineAnn[pos.Filename] = map[int]*idxComment{}
					}
					st.lineAnn[pos.Filename][pos.Line] = ic
				}
			}
		}
	}
	for _, pkg := range st.prog.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					st.applyGenDecl(pkg, d)
				case *ast.FuncDecl:
					st.applyFuncAnn(pkg, d)
				}
			}
		}
	}
}

// commentFor returns the dtgp:index comment in any of the given groups.
func (st *indexState) commentFor(groups ...*ast.CommentGroup) *idxComment {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			pos := st.prog.Fset.Position(c.Pos())
			if ic := st.lineAnn[pos.Filename][pos.Line]; ic != nil && ic.pos == c.Pos() {
				return ic
			}
		}
	}
	return nil
}

// applyGenDecl applies field and package-level var annotations within one
// declaration (type specs are walked for struct fields at any nesting).
func (st *indexState) applyGenDecl(pkg *Package, gd *ast.GenDecl) {
	switch gd.Tok {
	case token.VAR:
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			ic := st.commentFor(vs.Doc, vs.Comment, gd.Doc)
			if ic == nil {
				continue
			}
			for _, name := range vs.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					st.varAnn[v] = st.applyVarAnn(pkg, ic, v.Type())
				}
			}
		}
	case token.TYPE:
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			ast.Inspect(ts.Type, func(n ast.Node) bool {
				stype, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range stype.Fields.List {
					ic := st.commentFor(fld.Doc, fld.Comment)
					if ic == nil {
						continue
					}
					for _, name := range fld.Names {
						if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
							st.varAnn[v] = st.applyVarAnn(pkg, ic, v.Type())
						}
					}
				}
				return true
			})
		}
	}
}

// applyVarAnn interprets a domain=/elem= annotation against a declared
// type: domain= is the value domain of an integer, the subscript domain of
// a container.
func (st *indexState) applyVarAnn(pkg *Package, ic *idxComment, t types.Type) idxAnn {
	ic.consumed = true
	var ann idxAnn
	container := isContainer(t)
	integer := isIntegerType(t)
	for _, kv := range ic.pairs {
		d := st.lookupDomain(pkg, ic.pos, kv[1])
		switch kv[0] {
		case "domain":
			if container {
				ann.by = d
			} else if integer {
				ann.val = d
			} else {
				st.errf(pkg, ic.pos, "//dtgp:index domain= on a declaration that is neither an integer nor a container (%s)", t)
			}
		case "elem":
			if container {
				ann.elem = d
			} else {
				st.errf(pkg, ic.pos, "//dtgp:index elem= on a non-container declaration (%s)", t)
			}
		default:
			st.errf(pkg, ic.pos, "//dtgp:index key %q: variable and field annotations take domain= and elem=", kv[0])
		}
	}
	return ann
}

// applyFuncAnn interprets a <param>=<spec> annotation on a function doc
// comment, storing the result into varAnn (params) and the declared result
// annotations (picked up by computeSummaries).
func (st *indexState) applyFuncAnn(pkg *Package, fd *ast.FuncDecl) {
	ic := st.commentFor(fd.Doc)
	if ic == nil {
		return
	}
	ic.consumed = true
	params := map[string]*types.Var{}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, n := range f.Names {
				if v, ok := pkg.Info.Defs[n].(*types.Var); ok {
					params[n.Name] = v
				}
			}
		}
	}
	obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	for _, kv := range ic.pairs {
		key, spec := kv[0], kv[1]
		if ri, ok := resultIndex(key); ok {
			if obj == nil {
				continue
			}
			sig := obj.Type().(*types.Signature)
			if ri >= sig.Results().Len() {
				st.errf(pkg, ic.pos, "//dtgp:index %s=: function has %d result(s)", key, sig.Results().Len())
				continue
			}
			ann := st.parseSpec(pkg, ic.pos, spec, sig.Results().At(ri).Type())
			st.declResult(obj, ri, ann)
			continue
		}
		v, ok := params[key]
		if !ok {
			st.errf(pkg, ic.pos, "//dtgp:index %s=: no parameter named %q", key, key)
			continue
		}
		st.varAnn[v] = st.parseSpec(pkg, ic.pos, spec, v.Type())
	}
}

// resultIndex maps return/return2/... keys to result positions.
func resultIndex(key string) (int, bool) {
	if key == "return" {
		return 0, true
	}
	if n := strings.TrimPrefix(key, "return"); n != key {
		var i int
		if _, err := fmt.Sscanf(n, "%d", &i); err == nil && i >= 2 {
			return i - 1, true
		}
	}
	return 0, false
}

// parseSpec interprets <d>, []<e>, or <d>[]<e> against a declared type.
func (st *indexState) parseSpec(pkg *Package, pos token.Pos, spec string, t types.Type) idxAnn {
	var ann idxAnn
	byName, elemName := spec, ""
	if i := strings.Index(spec, "[]"); i >= 0 {
		byName, elemName = spec[:i], spec[i+2:]
	}
	if elemName != "" {
		if !isContainer(t) {
			st.errf(pkg, pos, "//dtgp:index []%s on a non-container (%s)", elemName, t)
		} else {
			ann.elem = st.lookupDomain(pkg, pos, elemName)
		}
	}
	if byName != "" {
		d := st.lookupDomain(pkg, pos, byName)
		switch {
		case isContainer(t):
			ann.by = d
		case isIntegerType(t):
			ann.val = d
		default:
			st.errf(pkg, pos, "//dtgp:index %s on a declaration that is neither an integer nor a container (%s)", byName, t)
		}
	}
	return ann
}

// declResultKey addresses one result position of one function.
type declResultKey struct {
	fn *types.Func
	i  int
}

func (st *indexState) declResult(fn *types.Func, i int, ann idxAnn) {
	if st.declResults == nil {
		st.declResults = map[declResultKey]idxAnn{}
	}
	st.declResults[declResultKey{fn, i}] = ann
}

// auditComments reports dtgp:index annotations that attached to nothing.
func (st *indexState) auditComments() {
	for _, ic := range st.comments {
		if !ic.consumed && !ic.malfor {
			st.errf(ic.pkg, ic.pos, "//dtgp:index annotation attaches to no supported declaration (struct field, var, local declaration, or function doc)")
		}
	}
}

// ---------------------------------------------------------------------------
// Type predicates.

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isContainer(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}

// intTypeMax returns the maximum value of a basic integer type and whether
// it is a sized type of at most 32 bits (the narrowing/overflow targets).
func intTypeMax(t types.Type) (int64, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return 0, false
	}
	switch b.Kind() {
	case types.Int32:
		return math.MaxInt32, true
	case types.Uint32:
		return math.MaxUint32, true
	case types.Int16:
		return math.MaxInt16, true
	case types.Uint16:
		return math.MaxUint16, true
	case types.Int8:
		return math.MaxInt8, true
	case types.Uint8:
		return math.MaxUint8, true
	}
	return 0, false
}

// isWideInt reports whether t is a 64-bit-class integer (int, uint, int64,
// uint64, uintptr) — the narrowing-check sources.
func isWideInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int, types.Uint, types.Int64, types.Uint64, types.Uintptr:
		return true
	}
	return false
}
