package analysis

// Interprocedural layer, part 2: per-unit side-effect summaries, computed
// bottom-up over the call-graph SCCs with the bit-vector machinery from
// dataflow.go. A summary records, for one unit (function or literal):
//
//   - Writes: which //dtgp:cached annotated struct fields the unit (or any
//     callee) may write;
//   - Markers: which dirty-marker functions may execute when the unit runs
//     (may-semantics: a conditional or stored-closure call counts — the
//     must-side of the dirtymark check is the per-function CFG coverage);
//   - ParamWrites: which of the unit's parameters (bit 0 = receiver for
//     methods) it writes through non-indexed lvalues, directly or via
//     callees — what parsafe needs to see kernel races hidden in helpers;
//   - EscSites: which compiler-reported heap-escape sites are reachable
//     from the unit through non-hot callees — what hotalloc needs to see
//     allocations hidden in helpers (propagation stops at //dtgp:hotpath
//     callees: those are checked in their own right);
//   - Obligations: cached-field writes not dominated-or-followed by the
//     field's declared dirty-marker on every CFG path of the unit, exported
//     so callers must provide the marker (or pass the obligation further
//     up; at a call-graph root it becomes a dirtymark finding).
//
// The annotation grammar is
//
//	//dtgp:cached by=<marker>[,<marker>...]
//
// on a struct field (doc comment or trailing line comment; no spaces in
// the name list). A marker names a module function: a bare Name (resolved
// in the field's package), Type.Name (method of the named receiver type,
// field's package), or pkg.Name (package basename qualifier, any package).
//
// Limitations, by design: writes through a local alias of a cached slice
// field (s := t.F; s[i] = v) are not attributed to the field — the repo
// idiom confines such aliases to the marker functions themselves; and
// marker reach is may-semantics across calls (the callee's own CFG is
// where the must-check happens).

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

var cachedRE = regexp.MustCompile(`dtgp:cached\s+by=([A-Za-z0-9_.,]+)`)

// A CachedField is one struct field annotated //dtgp:cached by=....
type CachedField struct {
	Var   *types.Var
	Owner *types.TypeName // named owner type, nil inside anonymous structs
	Pkg   *Package
	Pos   token.Pos // field name position (diagnostics anchor)
	Bit   int       // index in the field bit-space
	Specs []string  // declared marker names, as written
	// MarkerBits is the field's marker set over the marker bit-space.
	MarkerBits bvec
	// Unresolved lists Specs that matched no module function (a dirtymark
	// diagnostic: a renamed marker must not silently disable the check).
	Unresolved []string
	markers    []*Unit
}

// display renders the field for diagnostics, e.g. "NetState.px".
func (cf *CachedField) display() string {
	if cf.Owner != nil {
		return cf.Owner.Name() + "." + cf.Var.Name()
	}
	return cf.Var.Name()
}

// A WriteEvent is one syntactic write of a cached field. Events are shared
// between the summaries that bubble them: when an uncovered write escapes
// through every caller to a call-graph root, Leaked is set and Chain holds
// the first root-reaching call path, and dirtymark reports the event once,
// at the write.
type WriteEvent struct {
	Field  *CachedField
	Pos    token.Pos
	Unit   *Unit
	Leaked bool
	Chain  string // "writer ← caller ← ... ← root"
}

// An Obligation is an uncovered write exported to callers. Via is the call
// path from the writing unit up to (and including) the summary's unit.
type Obligation struct {
	Event *WriteEvent
	Via   string
}

// A Summary is the side-effect summary of one unit.
type Summary struct {
	Writes      bvec
	Markers     bvec
	ParamWrites uint64
	EscSites    bvec
	Obligations []Obligation
	oblSeen     map[*WriteEvent]bool
}

// WritesParam reports whether the summarised unit writes through the
// parameter with the given bit (0 = receiver for methods, then positional
// parameters).
func (s *Summary) WritesParam(bit int) bool {
	return bit < 64 && s.ParamWrites&(1<<uint(bit)) != 0
}

// Interproc bundles the call graph, the cached-field annotations and the
// per-unit summaries. Built once per Facts via Facts.Interproc.
type Interproc struct {
	Prog    *Program
	Facts   *Facts
	CG      *CallGraph
	Fields  []*CachedField
	fieldOf map[*types.Var]*CachedField
	// ownerFields maps a named struct type to its cached fields, for
	// whole-struct assignment detection.
	ownerFields map[*types.TypeName][]*CachedField
	// Markers[i] is the unit carrying marker bit i.
	Markers   []*Unit
	markerBit map[*Unit]int
	Summaries []*Summary
	// selfMarker[u] is the unit's own marker bit-set (its bit when it is a
	// marker; always includes bits of the enclosing declaration, so a
	// literal inside a marker is exempt like the marker itself).
	selfMarker []bvec
	flows      []*unitFlow
	// escOwner[i] is the innermost unit containing escape site i (nil for
	// package-scope sites); escHotRoot[i] the first //dtgp:hotpath function
	// whose summary reaches site i interprocedurally (nil when none, or
	// when the site is inside hot code and already checked by the
	// intraprocedural hotalloc pass).
	escOwner   []*Unit
	escHotRoot []*FuncInfo
}

// Interproc returns the memoised interprocedural layer, building it on
// first use. Escape-site data must be populated (or declared absent) on
// the Facts before the first call.
func (f *Facts) Interproc(prog *Program) *Interproc {
	if f.inter == nil {
		f.inter = BuildInterproc(prog, f)
	}
	return f.inter
}

// BuildInterproc collects annotations, builds the call graph and computes
// every unit summary bottom-up.
func BuildInterproc(prog *Program, facts *Facts) *Interproc {
	ip := &Interproc{
		Prog:        prog,
		Facts:       facts,
		fieldOf:     map[*types.Var]*CachedField{},
		ownerFields: map[*types.TypeName][]*CachedField{},
		markerBit:   map[*Unit]int{},
	}
	ip.CG = BuildCallGraph(prog, facts)
	ip.collectFields()
	ip.resolveMarkers()
	ip.mapEscapes()
	ip.computeSummaries()
	ip.markLeaks()
	return ip
}

// ---------------------------------------------------------------------------
// Annotation collection and marker resolution.

// collectFields scans every struct type declaration for //dtgp:cached
// annotations, assigning field bits in deterministic (package, file,
// position) order.
func (ip *Interproc) collectFields() {
	for _, pkg := range ip.Prog.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					owner, _ := pkg.Info.Defs[ts.Name].(*types.TypeName)
					ast.Inspect(ts.Type, func(n ast.Node) bool {
						st, ok := n.(*ast.StructType)
						if !ok {
							return true
						}
						o := owner
						if st != ts.Type {
							o = nil // anonymous nested struct
						}
						for _, fld := range st.Fields.List {
							specs := cachedSpecs(fld)
							if specs == nil {
								continue
							}
							for _, name := range fld.Names {
								v, ok := pkg.Info.Defs[name].(*types.Var)
								if !ok {
									continue
								}
								cf := &CachedField{
									Var: v, Owner: o, Pkg: pkg,
									Pos: name.Pos(), Bit: len(ip.Fields),
									Specs: specs,
								}
								ip.Fields = append(ip.Fields, cf)
								ip.fieldOf[v] = cf
								if o != nil {
									ip.ownerFields[o] = append(ip.ownerFields[o], cf)
								}
							}
						}
						return true
					})
				}
			}
		}
	}
}

// cachedSpecs extracts the marker name list from a field's doc or trailing
// comment, or nil when the field is unannotated.
func cachedSpecs(fld *ast.Field) []string {
	for _, cg := range [2]*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := cachedRE.FindStringSubmatch(c.Text); m != nil {
				var specs []string
				for _, s := range strings.Split(m[1], ",") {
					if s = strings.TrimSpace(s); s != "" {
						specs = append(specs, s)
					}
				}
				return specs
			}
		}
	}
	return nil
}

// resolveMarkers resolves every field's marker names to units and assigns
// marker bits (facts declaration order, so bit layout is deterministic).
func (ip *Interproc) resolveMarkers() {
	for _, cf := range ip.Fields {
		for _, spec := range cf.Specs {
			units := ip.matchMarker(cf, spec)
			if len(units) == 0 {
				cf.Unresolved = append(cf.Unresolved, spec)
				continue
			}
			cf.markers = append(cf.markers, units...)
		}
	}
	bitOf := func(u *Unit) int {
		if b, ok := ip.markerBit[u]; ok {
			return b
		}
		b := len(ip.Markers)
		ip.markerBit[u] = b
		ip.Markers = append(ip.Markers, u)
		return b
	}
	for _, cf := range ip.Fields {
		for _, u := range cf.markers {
			bitOf(u)
		}
	}
	n := len(ip.Markers)
	for _, cf := range ip.Fields {
		cf.MarkerBits = newBvec(n)
		for _, u := range cf.markers {
			cf.MarkerBits.set(ip.markerBit[u])
		}
	}
	// selfMarker: a unit inherits the marker bits of its enclosing
	// declaration, so helpers-extracted-into-literals inside a marker stay
	// exempt, and the declaration unit's own summary advertises the bit.
	ip.selfMarker = make([]bvec, len(ip.CG.Units))
	for _, u := range ip.CG.Units {
		sm := newBvec(n)
		if du := ip.CG.ByDecl[u.Fn.Obj]; du != nil {
			if b, ok := ip.markerBit[du]; ok {
				sm.set(b)
			}
		}
		ip.selfMarker[u.Index] = sm
	}
}

// matchMarker resolves one marker name for one field. Bare names and
// Type.Name match inside the field's package; pkg.Name matches the package
// basename anywhere in the module.
func (ip *Interproc) matchMarker(cf *CachedField, spec string) []*Unit {
	var units []*Unit
	qual, name, qualified := "", spec, false
	if i := strings.LastIndex(spec, "."); i >= 0 {
		qual, name, qualified = spec[:i], spec[i+1:], true
	}
	for _, fi := range ip.Facts.All() {
		if fi.Obj.Name() != name {
			continue
		}
		ok := false
		if !qualified {
			ok = fi.Obj.Pkg() == cf.Pkg.Types
		} else {
			if fi.Obj.Pkg() == cf.Pkg.Types && recvTypeName(fi.Obj) == qual {
				ok = true
			}
			if pkgBase(fi.Obj.Pkg().Path()) == qual {
				ok = true
			}
		}
		if ok {
			if u := ip.CG.ByDecl[fi.Obj]; u != nil {
				units = append(units, u)
			}
		}
	}
	return units
}

// recvTypeName returns the name of a method's receiver type ("" for plain
// functions), with pointers stripped.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// ---------------------------------------------------------------------------
// Escape-site ownership.

// mapEscapes assigns each compiler escape site to the innermost unit whose
// source extent contains it (literal units claim their own allocations, so
// summaries do not double-count them through the parent edge).
func (ip *Interproc) mapEscapes() {
	if !ip.Facts.EscapesValid {
		return
	}
	sites := ip.Facts.Escapes
	ip.escOwner = make([]*Unit, len(sites))
	ip.escHotRoot = make([]*FuncInfo, len(sites))
	type span struct {
		file           string
		sl, sc, el, ec int
	}
	spanOf := func(a, b token.Pos) span {
		s := ip.Prog.Fset.Position(a)
		e := ip.Prog.Fset.Position(b)
		return span{file: s.Filename, sl: s.Line, sc: s.Column, el: e.Line, ec: e.Column}
	}
	contains := func(sp span, es *EscapeSite) bool {
		if sp.file != es.File {
			return false
		}
		if es.Line < sp.sl || es.Line > sp.el {
			return false
		}
		if es.Line == sp.sl && es.Column < sp.sc {
			return false
		}
		if es.Line == sp.el && es.Column > sp.ec {
			return false
		}
		return true
	}
	spans := make([]span, len(ip.CG.Units))
	for i, u := range ip.CG.Units {
		if u.Lit != nil {
			spans[i] = spanOf(u.Lit.Pos(), u.Lit.End())
		} else {
			spans[i] = spanOf(u.Fn.Decl.Pos(), u.Fn.Decl.End())
		}
	}
	for si := range sites {
		var best *Unit
		for i, u := range ip.CG.Units {
			if !contains(spans[i], &sites[si]) {
				continue
			}
			// The innermost containing unit wins: literals are nested inside
			// their declaration, so the narrower span is the deeper unit.
			if best == nil || unitInside(u, best) {
				best = u
			}
		}
		ip.escOwner[si] = best
	}
}

// unitInside reports whether a's source extent is inside b's.
func unitInside(a, b *Unit) bool {
	if a.Lit == nil {
		return false
	}
	if b.Lit == nil {
		return a.Fn == b.Fn
	}
	return a.Fn == b.Fn && b.Lit.Pos() <= a.Lit.Pos() && a.Lit.End() <= b.Lit.End()
}
