package report

import (
	"fmt"
	"testing"
)

// TestSuiteShape runs the whole eight-design Table 3 comparison and checks
// the paper's qualitative claims hold in aggregate. It takes several
// several minutes; skipped under -short.
func TestSuiteShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full eight-design suite (minutes)")
	}
	// The configuration of EXPERIMENTS.md (DefaultSuiteOptions: scale 256,
	// factor 0.6). At smaller scales the exact-STA-per-iteration baseline
	// is relatively stronger and the paper's shape does not fully emerge,
	// so the assertion is only meaningful here.
	t3, err := RunTable3(DefaultSuiteOptions())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(t3.Markdown())

	dtWNSWins, dtTNSWins := 0, 0
	for _, r := range t3.Rows {
		if r.DT.WNS >= r.NW.WNS {
			dtWNSWins++
		}
		if r.DT.TNS >= r.NW.TNS {
			dtTNSWins++
		}
		// Our flow beats plain wirelength on WNS on every design. (The
		// net-weighting baseline may occasionally lose to it — the
		// paper's Table 3 shows the same on superblue10.)
		if r.DT.WNS < r.WL.WNS {
			t.Errorf("%s: difftiming lost to wirelength on WNS", r.Name)
		}
	}
	// The paper's aggregate claim: ours wins most benchmarks against net
	// weighting (allow a small number of exceptions at this scale).
	if dtWNSWins < 6 {
		t.Errorf("difftiming won WNS on only %d/8 designs", dtWNSWins)
	}
	if dtTNSWins < 6 {
		t.Errorf("difftiming won TNS on only %d/8 designs", dtTNSWins)
	}
	// Runtime ordering: WL fastest, NW slowest (ours in between).
	if !(t3.AvgRuntimeRatio[0] < 1 && t3.AvgRuntimeRatio[1] > 1) {
		t.Errorf("runtime ordering broken: %v", t3.AvgRuntimeRatio)
	}
}
