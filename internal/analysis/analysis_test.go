package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current analyzer output")

// loadFixture loads one testdata module under the import prefix "fx".
func loadFixture(t *testing.T, name string) (*Program, *Facts, string) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(Mapping{Prefix: "fx", Dir: dir})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return prog, ComputeFacts(prog), dir
}

// formatDiags renders findings with fixture-relative paths so golden files
// are machine-independent.
func formatDiags(dir string, diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(dir, d.Position.Filename)
		if err != nil {
			rel = d.Position.Filename
		}
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n",
			filepath.ToSlash(rel), d.Position.Line, d.Position.Column, d.Check, d.Message)
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings differ from %s (re-run with -update after verifying)\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// RunAnalyzers runs the given analyzers over every loaded package whose
// import path passes the filter, applies dtgp:allow suppressions, and
// returns the surviving findings sorted by position.
func RunAnalyzers(prog *Program, facts *Facts, analyzers []*Analyzer, match func(pkgPath string) bool) ([]Diagnostic, error) {
	kept, _, err := runAnalyzersFull(prog, facts, analyzers, match)
	return kept, err
}

// runAnalyzersFull is RunAnalyzers plus the suppressed findings (marked
// and sorted), for audit output.
func runAnalyzersFull(prog *Program, facts *Facts, analyzers []*Analyzer, match func(pkgPath string) bool) (kept, suppressed []Diagnostic, err error) {
	kept, suppressed, _, _, err = runAnalyzersRecording(prog, facts, analyzers, match)
	return kept, suppressed, err
}

func runGoldenFixture(t *testing.T, name string, a *Analyzer) {
	prog, facts, dir := loadFixture(t, name)
	diags, err := RunAnalyzers(prog, facts, []*Analyzer{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 && !*update {
		t.Fatalf("fixture %s produced no findings; every analyzer fixture must include a true positive", name)
	}
	checkGolden(t, name, formatDiags(dir, diags))
}

func TestMapIterGolden(t *testing.T)  { runGoldenFixture(t, "mapiter", MapIter) }
func TestFloatDetGolden(t *testing.T) { runGoldenFixture(t, "floatdet", FloatDet) }
func TestParSafeGolden(t *testing.T)  { runGoldenFixture(t, "parsafe", ParSafe) }
func TestGradPairGolden(t *testing.T) { runGoldenFixture(t, "gradpair", GradPair) }
func TestErrFlowGolden(t *testing.T)  { runGoldenFixture(t, "errflow", ErrFlow) }

// TestUnreachedGolden: exactly the two seeded dead functions are findings;
// the String, Unwrap and package-level-variable cases are reached, and the
// allowed dead function is suppressed (TestSuppressedAudit).
func TestUnreachedGolden(t *testing.T) { runGoldenFixture(t, "unreached", Unreached) }

// TestUnturnedGolden: exactly the two seeded unturned fields are findings,
// one set by nothing and one set only by a normalisation; the fields set
// through main's chained selector and from a Default… parameter are clean,
// and the allowed field is suppressed (TestSuppressedAudit).
func TestUnturnedGolden(t *testing.T) { runGoldenFixture(t, "unturned", Unturned) }

// TestGradPairCatchesDeletedAdjoint pins the acceptance case for the
// dataflow engine: the gradpair fixture's "mut" backward has its gRes
// accumulation deleted — a seeded wrong-gradient mutation — and the
// analyzer must name the unaccumulated input.
func TestGradPairCatchesDeletedAdjoint(t *testing.T) {
	prog, facts, dir := loadFixture(t, "gradpair")
	diags, err := RunAnalyzers(prog, facts, []*Analyzer{GradPair}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if strings.Contains(d.Message, `op "mut"`) && strings.Contains(d.Message, "Res") {
			return
		}
	}
	t.Errorf("gradpair missed the deleted gRes accumulation; got:\n%s", formatDiags(dir, diags))
}

// TestSuppressedAudit: fixture //dtgp:allow annotations must surface in the
// suppressed (audit) stream with the flag set, not vanish.
func TestSuppressedAudit(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		a       *Analyzer
		wantMin int
	}{
		{"gradpair", GradPair, 1},
		{"errflow", ErrFlow, 1},
		{"parsafe", ParSafe, 1},
		{"unreached", Unreached, 1},
		{"unturned", Unturned, 1},
	} {
		prog, facts, _ := loadFixture(t, tc.fixture)
		_, suppressed, err := runAnalyzersFull(prog, facts, []*Analyzer{tc.a}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(suppressed) < tc.wantMin {
			t.Errorf("%s: %d suppressed findings, want >= %d", tc.fixture, len(suppressed), tc.wantMin)
		}
		for _, d := range suppressed {
			if !d.Suppressed {
				t.Errorf("%s: suppressed finding missing the Suppressed flag: %v", tc.fixture, d)
			}
		}
	}
}

// markerEscapes synthesizes compiler escape sites from WANT-ESCAPE comments
// in the fixture sources, standing in for `go build -gcflags=-m` output.
func markerEscapes(t *testing.T, prog *Program) []EscapeSite {
	t.Helper()
	var sites []EscapeSite
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			fname := prog.Fset.Position(f.Pos()).Filename
			data, err := os.ReadFile(fname)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				if _, msg, ok := strings.Cut(line, "// WANT-ESCAPE: "); ok {
					sites = append(sites, EscapeSite{File: fname, Line: i + 1, Column: 2, Message: msg})
				}
			}
		}
	}
	return sites
}

func TestHotAllocGolden(t *testing.T) {
	prog, facts, dir := loadFixture(t, "hotalloc")
	facts.Escapes = markerEscapes(t, prog)
	facts.EscapesValid = true
	var err error
	facts.HotAllow, err = LoadHotAllow(filepath.Join(dir, "hotalloc.allow"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(prog, facts, []*Analyzer{HotAlloc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 && !*update {
		t.Fatal("hotalloc fixture produced no findings; Leak must be a true positive")
	}
	checkGolden(t, "hotalloc", formatDiags(dir, diags))

	stale := facts.StaleHotAllow()
	if len(stale) != 1 || !strings.HasPrefix(stale[0], "fx/pkg.Gone\t") {
		t.Errorf("StaleHotAllow = %q, want exactly the fx/pkg.Gone entry", stale)
	}
	want := "fx/pkg.Leak\tmake([]float64, n) escapes to heap"
	found := false
	for _, p := range facts.ProposedAllow {
		if p == want {
			found = true
		}
	}
	if !found {
		t.Errorf("ProposedAllow = %q, want it to contain %q", facts.ProposedAllow, want)
	}
}

// TestHotAllocNoEscapeData checks the analyzer is a no-op when escape data
// was not collected (dtgp-vet -noescapes), rather than reporting everything
// or crashing.
func TestHotAllocNoEscapeData(t *testing.T) {
	prog, facts, _ := loadFixture(t, "hotalloc")
	diags, err := RunAnalyzers(prog, facts, []*Analyzer{HotAlloc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("expected no findings without escape data, got %v", diags)
	}
}

func TestParseEscapes(t *testing.T) {
	out := strings.Join([]string{
		"# dtgp/internal/wirelength",
		"internal/wirelength/wirelength.go:28:19: make([]float64, n) escapes to heap",
		"internal/wirelength/wirelength.go:28:19: make([]float64, n) escapes to heap", // inlined duplicate
		"internal/wirelength/wirelength.go:53:17: moved to heap: model",
		"internal/wirelength/wirelength.go:74:6: can inline (*Model).Evaluate",
		"not a diagnostic line",
	}, "\n")
	sites := ParseEscapes(out, "/mod")
	if len(sites) != 2 {
		t.Fatalf("got %d sites, want 2 (deduplicated, non-escape lines dropped): %v", len(sites), sites)
	}
	if sites[0].File != "/mod/internal/wirelength/wirelength.go" || sites[0].Line != 28 || sites[0].Column != 19 {
		t.Errorf("bad site: %+v", sites[0])
	}
	if !strings.HasPrefix(sites[1].Message, "moved to heap") {
		t.Errorf("moved-to-heap diagnostics must be kept: %+v", sites[1])
	}
}

func TestLoadHotAllow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "allow")
	content := "# comment\n\nfx/pkg.F\tmsg one\nfx/pkg.F\tmsg two\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	allow, err := LoadHotAllow(path)
	if err != nil {
		t.Fatal(err)
	}
	if !allow["fx/pkg.F"]["msg one"] || !allow["fx/pkg.F"]["msg two"] {
		t.Errorf("allowlist not parsed: %v", allow)
	}
	if _, err := LoadHotAllow(filepath.Join(dir, "missing")); err != nil {
		t.Errorf("missing allowlist must mean empty, got error %v", err)
	}
	if err := os.WriteFile(path, []byte("no tab separator\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHotAllow(path); err == nil {
		t.Error("malformed entry must be an error")
	}
}

func TestMatchPatterns(t *testing.T) {
	m := matchPatterns("dtgp", []string{"./internal/core", "./internal/timing/..."})
	cases := []struct {
		path string
		want bool
	}{
		{"dtgp/internal/core", true},
		{"dtgp/internal/coreext", false},
		{"dtgp/internal/timing", true},
		{"dtgp/internal/timing/sub", true},
		{"dtgp/internal/place", false},
	}
	for _, c := range cases {
		if got := m(c.path); got != c.want {
			t.Errorf("match(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	if matchPatterns("dtgp", []string{"./..."}) != nil {
		t.Error("./... must disable filtering")
	}
	if matchPatterns("dtgp", nil) != nil {
		t.Error("no patterns must disable filtering")
	}
}

// TestRepoClean is the self-check: the repository must satisfy its own
// invariants, i.e. `dtgp-vet ./...` is clean on the current tree. With
// -short the hotalloc escape pass (a `go build -gcflags=-m` subprocess) is
// skipped; the AST analyzers always run.
func TestRepoClean(t *testing.T) {
	rep, err := Vet(Options{Dir: "../..", Escapes: !testing.Short()})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Diagnostics {
		t.Errorf("%s", d)
	}
}
