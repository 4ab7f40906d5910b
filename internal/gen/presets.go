package gen

import (
	"fmt"
	"sort"
)

// Preset describes one scaled superblue-like benchmark. Cell counts follow
// the ratios of the paper's Table 2 (ICCAD 2015 contest statistics); the
// Scale divisor shrinks them to CPU-friendly sizes while preserving the
// relative size ordering of the suite.
type Preset struct {
	Name string
	// PaperCells/PaperNets/PaperPins are the Table 2 statistics of the
	// original benchmark.
	PaperCells, PaperNets, PaperPins int
	Seed                             int64
}

// Presets lists the eight benchmarks of the paper's evaluation.
var Presets = []Preset{
	{"superblue1", 1209716, 1215710, 3767494, 101},
	{"superblue3", 1213253, 1224979, 3905321, 103},
	{"superblue4", 795645, 802513, 2497940, 104},
	{"superblue5", 1086888, 1100825, 3246878, 105},
	{"superblue7", 1931639, 1933945, 6372094, 107},
	{"superblue10", 1876103, 1898119, 5560506, 110},
	{"superblue16", 981559, 999902, 3013268, 116},
	{"superblue18", 768068, 771542, 2559143, 118},
}

// PresetByName finds a preset by canonical name or paper-scale alias.
func PresetByName(name string) (Preset, bool) {
	if canon, ok := paperScaleAliases[name]; ok {
		name = canon
	}
	for _, p := range Presets {
		if p.Name == name {
			return p, true
		}
	}
	return Preset{}, false
}

// paperScaleAliases name the scaling-trajectory anchor designs by their
// Table 2 cell count rounded to 0.1M. Unlike canonical preset names they
// promise a specific size, so ResolvePresetSpec pins them to scale 1.
var paperScaleAliases = map[string]string{
	"superblue-0.8M": "superblue4",
	"superblue-1.9M": "superblue7",
}

// PaperScaleAliasNames lists the aliases, sorted.
func PaperScaleAliasNames() []string {
	names := make([]string, 0, len(paperScaleAliases))
	for name := range paperScaleAliases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ResolvePresetSpec resolves a preset name for generation. Canonical names
// ("superblue4") keep the caller's scale divisor; paper-scale aliases
// ("superblue-0.8M") force scale 1 — the name IS the cell count.
func ResolvePresetSpec(name string, scale int) (Preset, int, bool) {
	if canon, ok := paperScaleAliases[name]; ok {
		p, _ := PresetByName(canon)
		return p, 1, true
	}
	p, ok := PresetByName(name)
	return p, scale, ok
}

// PresetNames returns the benchmark names in paper order.
func PresetNames() []string {
	names := make([]string, len(Presets))
	for i, p := range Presets {
		names[i] = p.Name
	}
	return names
}

// Params builds generation parameters for a preset at the given scale
// divisor (e.g. 256 → superblue1 becomes ≈4.7k cells).
func (p Preset) Params(scale int) Params {
	if scale < 1 {
		scale = 1
	}
	cells := p.PaperCells / scale
	if cells < 64 {
		cells = 64
	}
	pp := DefaultParams(p.Name, cells, p.Seed)
	return pp
}

// String renders the preset like a Table 2 row.
func (p Preset) String() string {
	return fmt.Sprintf("%-12s %9d %9d %9d", p.Name, p.PaperCells, p.PaperNets, p.PaperPins)
}
