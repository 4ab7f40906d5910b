package analysis

import (
	"sort"
	"strings"
)

// DirtyMark enforces the repo's incremental-state coherence invariant:
// every write to a struct field annotated
//
//	//dtgp:cached by=<marker>[,<marker>...]
//
// must be dominated or followed, on every CFG path, by a call whose
// interprocedural summary reaches one of the declared dirty-marker
// functions — or happen inside a marker itself. Cached state (position
// snapshots, NetState geometry, velocity EMAs, rebuilt-in-place trees)
// is only coherent if each mutation reaches the matching
// refresh/invalidation; a write that escapes uncovered through every
// caller to a call-graph root is a finding, reported once at the write
// with the root-reaching call chain.
//
// The check is interprocedural: writes inside helpers create obligations
// that bubble to callers through the bottom-up summaries (computed over
// call-graph SCCs with the bit-vector solver), so a refactor that moves a
// write behind a helper, a method value or a kernel literal cannot hide
// it. Marker reach across calls is may-semantics — the must-side is the
// per-function dominated-or-followed coverage.
//
// Suppress a deliberate exception with //dtgp:allow(dirtymark) on the
// write line, with a reason in the surrounding comment.
var DirtyMark = &Analyzer{
	Name: "dirtymark",
	Doc:  "check that every write to a //dtgp:cached field reaches the declared dirty-marker on all paths",
	Run:  runDirtyMark,
}

func runDirtyMark(pass *Pass) error {
	ip := pass.Facts.Interproc(pass.Prog)
	// Annotation errors first: a marker name that resolves to nothing
	// would silently disable the field's whole check.
	for _, cf := range ip.Fields {
		if cf.Pkg != pass.Pkg {
			continue
		}
		for _, spec := range cf.Unresolved {
			pass.Reportf(cf.Pos,
				"unknown dirty-marker %q for cached field %s (must name a module function: Name, Type.Name or pkg.Name)",
				spec, cf.display())
		}
	}
	// Leaked write events, anchored at the write, reported in the write's
	// package (the driver deduplicates across passes).
	for _, u := range ip.CG.Units {
		if u.Pkg() != pass.Pkg {
			continue
		}
		fl := ip.flows[u.Index]
		for _, ev := range fl.events {
			if !ev.Leaked {
				continue
			}
			pass.Reportf(ev.Pos,
				"write to cached field %s is not dominated or followed by a dirty-mark call (%s) on the call path %s (cached state goes incoherent with its source; call the marker or annotate //dtgp:allow(dirtymark) with a reason)",
				ev.Field.display(), markerList(ev.Field), ev.Chain)
		}
	}
	return nil
}

// markerList renders a field's declared markers for diagnostics, sorted
// and deduplicated.
func markerList(cf *CachedField) string {
	if len(cf.Specs) == 0 {
		return "no markers declared"
	}
	specs := append([]string(nil), cf.Specs...)
	sort.Strings(specs)
	return "declared markers: " + strings.Join(specs, ", ")
}
