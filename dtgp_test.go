package dtgp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dtgp/internal/gen"
)

// TestEndToEndFlow is the integration test of the whole public API:
// generate → calibrate → place → legality → STA → save → load → re-STA.
func TestEndToEndFlow(t *testing.T) {
	design, con, err := GenerateCustom("e2e", 800, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := CalibratePeriod(design, con, 0.8); err != nil {
		t.Fatal(err)
	}
	before, err := AnalyzeTiming(design, con)
	if err != nil {
		t.Fatal(err)
	}

	res, err := Place(design, con, FlowDiffTiming, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(design); err != nil {
		t.Fatalf("not legal: %v", err)
	}
	if res.WNS <= before.WNS {
		t.Errorf("placement did not improve WNS: %v → %v", before.WNS, res.WNS)
	}

	dir := t.TempDir()
	if err := SaveBenchmark(dir, "e2e", design, con); err != nil {
		t.Fatal(err)
	}
	loaded, con2, err := LoadBenchmark(dir, "e2e")
	if err != nil {
		t.Fatal(err)
	}
	sta2, err := AnalyzeTiming(loaded, con2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sta2.WNS-res.WNS) > 1e-6 {
		t.Errorf("WNS changed across save/load: %v vs %v", sta2.WNS, res.WNS)
	}
}

func TestGenerateBenchmarkPresets(t *testing.T) {
	names := gen.PresetNames()
	if len(names) != 8 {
		t.Fatalf("presets = %d", len(names))
	}
	d, con, err := GenerateBenchmark("superblue18", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "superblue18" || con.Period <= 0 {
		t.Errorf("bad benchmark: %s period %v", d.Name, con.Period)
	}
	if _, _, err := GenerateBenchmark("nope", 256); err == nil {
		t.Error("unknown preset accepted")
	}
	// A divisor below 1 must be refused before anything is generated, not
	// clamped to 1 (the paper-scale design).
	for _, scale := range []int{0, -5} {
		d, con, err := GenerateBenchmark("superblue4", scale)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(scale)) {
			t.Errorf("scale %d: err = %v, want an error naming the scale", scale, err)
		}
		if d != nil || con != nil {
			t.Errorf("scale %d: generated a design", scale)
		}
	}
}

func TestCalibratePeriod(t *testing.T) {
	d, con, err := GenerateCustom("cal", 400, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := CalibratePeriod(d, con, 1.0); err != nil {
		t.Fatal(err)
	}
	// At factor 1.0 the WNS should be ≈ 0 (period == critical delay).
	res, err := AnalyzeTiming(d, con)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.WNS) > 1 {
		t.Errorf("WNS after exact calibration = %v, want ≈ 0", res.WNS)
	}
	// Tighter factor → proportionally negative WNS.
	if err := CalibratePeriod(d, con, 0.5); err != nil {
		t.Fatal(err)
	}
	res2, err := AnalyzeTiming(d, con)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WNS >= 0 {
		t.Errorf("WNS %v not negative at factor 0.5", res2.WNS)
	}
}

func TestDiffTimerFacade(t *testing.T) {
	d, con, err := GenerateCustom("tm", 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := CalibratePeriod(d, con, 0.8); err != nil {
		t.Fatal(err)
	}
	g, err := NewTimingGraph(d, con)
	if err != nil {
		t.Fatal(err)
	}
	tm := NewDiffTimer(g, nil)
	f := tm.Evaluate(0.01, 0.001)
	if f <= 0 {
		t.Errorf("objective %v, want > 0 with violations", f)
	}
	nonZero := 0
	for ci := range tm.CellGradX {
		if tm.CellGradX[ci] != 0 || tm.CellGradY[ci] != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Error("no gradients produced")
	}
}

func TestWriteTimingReportFacade(t *testing.T) {
	d, con, err := GenerateCustom("rep", 300, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeTiming(d, con)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := WriteTimingReport(&sb, res, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "WNS") {
		t.Error("report missing WNS")
	}
}

func TestDefaultLibraryFacade(t *testing.T) {
	lib := DefaultLibrary()
	if err := lib.Validate(); err != nil {
		t.Fatal(err)
	}
	if lib.CellByName("DFF_X1") < 0 {
		t.Error("missing DFF")
	}
}
