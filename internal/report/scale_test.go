package report

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestParseScaleSpecs(t *testing.T) {
	specs, err := ParseScaleSpecs("500, 20k,superblue4,superblue-0.8M")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name  string
		cells int
	}{
		{"cells-500", 500},
		{"cells-20000", 20000},
		{"superblue4", 795645},     // canonical name at scale 1
		{"superblue-0.8M", 795645}, // alias pinned to scale 1
	}
	if len(specs) != len(want) {
		t.Fatalf("got %d specs", len(specs))
	}
	for i, w := range want {
		if specs[i].Name != w.name || specs[i].TargetCells() != w.cells {
			t.Fatalf("spec %d = %q/%d, want %q/%d", i, specs[i].Name, specs[i].TargetCells(), w.name, w.cells)
		}
	}
	for _, bad := range []string{"", "12", "notapreset", "0"} {
		if _, err := ParseScaleSpecs(bad); err == nil {
			t.Errorf("ParseScaleSpecs(%q) accepted", bad)
		}
	}
	if _, err := ParseScaleSpecs(DefaultScaleSpec); err != nil {
		t.Fatalf("default spec rejected: %v", err)
	}
}

func TestRunScaleSweepQuick(t *testing.T) {
	specs, err := ParseScaleSpecs("900,400")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunScaleSweep(specs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("rows = %d", len(rep.Benchmarks))
	}
	// Ascending size order regardless of spec order (VmHWM monotonicity).
	if rep.Benchmarks[0].Name != "cells-400" || rep.Benchmarks[1].Name != "cells-900" {
		t.Fatalf("sweep order %s, %s — want ascending", rep.Benchmarks[0].Name, rep.Benchmarks[1].Name)
	}
	for _, row := range rep.Benchmarks {
		if row.Cells <= 0 || row.Nets <= 0 || row.Pins <= 0 {
			t.Fatalf("%s: missing design stats: %+v", row.Name, row)
		}
		if row.SecPerIter <= 0 || row.BuildSec < 0 || row.TotalSec < row.SecPerIter {
			t.Fatalf("%s: incoherent timings: %+v", row.Name, row)
		}
		if row.ArenaMB <= 0 {
			t.Fatalf("%s: run reports no arena footprint", row.Name)
		}
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ScaleReport
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if !strings.Contains(string(js), `"name": "cells-900"`) {
		t.Fatal("JSON missing the greppable name field the staleness gate relies on")
	}
}
