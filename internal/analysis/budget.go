package analysis

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// AnalyzerStat is the measured wall time of one analyzer (or one driver
// phase) over a whole Vet run, summed across packages. Phase entries use
// the pseudo-names "load", "facts" and "escapes"; everything else is an
// analyzer name from All.
type AnalyzerStat struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

// Budget maps an analyzer (or phase) name to its committed baseline wall
// time in milliseconds. The committed file is deliberately generous —
// several times a typical local run — so the 2× gate trips on complexity
// regressions (a new quadratic pass, a summary-cache miss storm), not on
// machine noise.
type Budget map[string]float64

// BudgetSlack is the multiplier applied to a baseline before a stat is
// considered over budget.
const BudgetSlack = 2.0

// LoadBudget reads a committed baseline file (JSON object: name → millis;
// string-valued keys such as "_comment" are ignored). A missing file is not
// an error: it returns a nil Budget, against which nothing is ever over
// budget.
func LoadBudget(path string) (Budget, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("vet budget: %v", err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("vet budget %s: %v", path, err)
	}
	b := Budget{}
	for k, v := range raw {
		if ms, ok := v.(float64); ok {
			b[k] = ms
		}
	}
	return b, nil
}

// budgetNames lists every name a baseline may carry: the driver phases
// ("load", "facts", "escapes") and then the analyzers of All.
func budgetNames() []string {
	names := []string{"load", "facts", "escapes"}
	for _, a := range All {
		names = append(names, a.Name)
	}
	return names
}

// UnknownKeys returns, sorted, the budget keys that name neither an
// analyzer in All nor a driver phase. Such a key is the baseline of a
// deleted or renamed analyzer: no stat ever meets it, so it would linger
// unchecked. dtgp-vet -stats reports each one, and -strict-budget fails on
// them, as the allow audits do for stale suppressions.
func (b Budget) UnknownKeys() []string {
	known := map[string]bool{}
	for _, name := range budgetNames() {
		known[name] = true
	}
	var out []string
	for k := range b {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// MissingKeys is the reverse of UnknownKeys: the driver phases and
// analyzers of All, in that order, that have no positive baseline.
// OverBudget cannot gate their time, so a new analyzer would run with no
// budget and nobody would notice; dtgp-vet -stats reports each one, and
// -strict-budget fails on them.
func (b Budget) MissingKeys() []string {
	var out []string
	for _, name := range budgetNames() {
		if b[name] <= 0 {
			out = append(out, name)
		}
	}
	return out
}

// OverBudget returns the stats that exceed BudgetSlack × their committed
// baseline, with the baseline attached for the report. Stats with no
// positive baseline are skipped here; MissingKeys reports them.
func OverBudget(stats []AnalyzerStat, budget Budget) []BudgetViolation {
	var out []BudgetViolation
	for _, s := range stats {
		base, ok := budget[s.Name]
		if !ok || base <= 0 {
			continue
		}
		if s.Millis > BudgetSlack*base {
			out = append(out, BudgetViolation{Stat: s, BaselineMillis: base})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i].Stat.Millis/out[i].BaselineMillis > out[j].Stat.Millis/out[j].BaselineMillis
	})
	return out
}

// BudgetViolation is one analyzer over its committed time budget.
type BudgetViolation struct {
	Stat           AnalyzerStat
	BaselineMillis float64
}

func (v BudgetViolation) String() string {
	return fmt.Sprintf("%s took %.0fms, over %.0f× its committed %.0fms baseline (limit %.0fms; re-baseline internal/analysis/vet-budget.json if the cost is justified)",
		v.Stat.Name, v.Stat.Millis, v.Stat.Millis/v.BaselineMillis, v.BaselineMillis, BudgetSlack*v.BaselineMillis)
}
