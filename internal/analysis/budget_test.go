package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestLoadBudget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vet-budget.json")
	if err := os.WriteFile(path, []byte(`{"_comment":"ignored","indexspace":800,"load":8000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	if b["indexspace"] != 800 || b["load"] != 8000 {
		t.Errorf("budget = %v, want indexspace=800 load=8000", b)
	}
	if _, ok := b["_comment"]; ok {
		t.Errorf("string-valued _comment key must be ignored, got %v", b)
	}

	// Missing file: nil budget, no error (nothing is ever over budget).
	b, err = LoadBudget(filepath.Join(dir, "nope.json"))
	if err != nil || b != nil {
		t.Errorf("missing file: got (%v, %v), want (nil, nil)", b, err)
	}

	// Malformed file is a hard error.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBudget(bad); err == nil {
		t.Error("malformed budget file: want error, got nil")
	}
}

func TestOverBudget(t *testing.T) {
	budget := Budget{"fast": 100, "slow": 10, "zero": 0}
	stats := []AnalyzerStat{
		{Name: "fast", Millis: 150},        // 1.5× — within the 2× slack
		{Name: "slow", Millis: 50},         // 5× — over
		{Name: "unbudgeted", Millis: 9999}, // no baseline — skipped (MissingKeys reports it)
		{Name: "zero", Millis: 1},          // zero baseline — skipped
	}
	over := OverBudget(stats, budget)
	if len(over) != 1 || over[0].Stat.Name != "slow" {
		t.Fatalf("OverBudget = %v, want exactly [slow]", over)
	}
	if msg := over[0].String(); !strings.Contains(msg, "slow took 50ms") || !strings.Contains(msg, "10ms baseline") {
		t.Errorf("violation message %q missing timing details", msg)
	}

	// Nil budget (no committed file): nothing is over.
	if over := OverBudget(stats, nil); over != nil {
		t.Errorf("nil budget: got %v, want nil", over)
	}
}

// TestUnknownBudgetKeys: a baseline naming no analyzer and no driver phase
// is reported, and so is an analyzer or phase with no baseline; the
// committed file has neither.
func TestUnknownBudgetKeys(t *testing.T) {
	b := Budget{"load": 1, "facts": 1, "escapes": 1, "indexspace": 1, "scratchlife": 1, "bogus": 1}
	if got := b.UnknownKeys(); !slices.Equal(got, []string{"bogus", "scratchlife"}) {
		t.Errorf("UnknownKeys = %v, want [bogus scratchlife]", got)
	}
	full := Budget{}
	for _, name := range budgetNames() {
		full[name] = 1
	}
	delete(full, "facts")
	full["unreached"] = 0
	if got := full.MissingKeys(); !slices.Equal(got, []string{"facts", "unreached"}) {
		t.Errorf("MissingKeys = %v, want [facts unreached]", got)
	}
	committed, err := LoadBudget("vet-budget.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := committed.UnknownKeys(); len(got) > 0 {
		t.Errorf("vet-budget.json has stale keys %v", got)
	}
	if got := committed.MissingKeys(); len(got) > 0 {
		t.Errorf("vet-budget.json has no baseline for %v", got)
	}
}

// TestVetReportsStats: a real Vet run must time every analyzer in All plus
// the load and facts phases (escapes only when enabled).
func TestVetReportsStats(t *testing.T) {
	rep, err := Vet(Options{Dir: ".", Escapes: false})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, s := range rep.Stats {
		if s.Millis < 0 {
			t.Errorf("stat %s has negative time %v", s.Name, s.Millis)
		}
		got[s.Name] = true
	}
	want := []string{"load", "facts"}
	for _, a := range All {
		want = append(want, a.Name)
	}
	for _, name := range want {
		if !got[name] {
			t.Errorf("Vet stats missing %q (have %v)", name, rep.Stats)
		}
	}
	if got["escapes"] {
		t.Error("escapes stat present on a -noescapes run")
	}
}
