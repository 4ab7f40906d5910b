package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"dtgp/internal/bookshelf"
	"dtgp/internal/gen"
	"dtgp/internal/netlist"
	"dtgp/internal/place"
)

// workload is one set of inputs and the work done on them. The reasons for
// each are in BENCHMARK.json and README.md.
type workload struct {
	name  string
	mode  place.Mode // flow mode; unused by the scaling workload
	scale bool
}

var workloads = []workload{
	{name: "flow-dt", mode: place.ModeDiffTiming},
	{name: "flow-nw", mode: place.ModeNetWeight},
	{name: "flow-wl", mode: place.ModeWirelength},
	{name: "scale-200k", scale: true},
}

// lanes is the GOMAXPROCS, and so the worker-pool lane count, a workload's
// process runs with. The flows run on one lane: at 1–2k cells the pool's
// barriers cost more than a second lane saves on a 2-CPU machine (the
// wirelength flow on superblue4 at 1/1024 took a median 0.20 s on one lane
// and 0.30 s on two), and with two lanes every barrier waits for whichever
// CPU other load slows, which made flow times three times as noisy (a 26 %
// against a 9 % interquartile range). The scaling run uses every CPU, the
// regime in which the parallel runtime matters.
func (w workload) lanes() int {
	if w.scale {
		return runtime.NumCPU()
	}
	return 1
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// flowPresets are the designs every flow workload places: all eight of the
// paper's superblue presets, each generated at 1/sizes.flowScale of its
// paper size. Quality metrics average over all eight because timing-driven
// results are chaotic under small input changes: over ten seeds, the
// interquartile range of TNS was 14 % of the median with three designs and
// 4 to 11 % with eight. Sixteen designs (two seeds per preset) did not
// narrow it further and left the net-weighting flow one sample per design.
var flowPresets = []string{
	"superblue1", "superblue3", "superblue4", "superblue5",
	"superblue7", "superblue10", "superblue16", "superblue18",
}

// sizes are the input sizes; toySizes keep the smoke test fast.
type sizes struct {
	flowScale  int // preset divisor of the flow designs
	scaleCells int // target cell count of the scaling design
	scaleIters int // timing-driven iterations of the scaling run
}

var (
	fullSizes = sizes{flowScale: 1024, scaleCells: 200_000, scaleIters: 20}
	toySizes  = sizes{flowScale: 16384, scaleCells: 1_000, scaleIters: 3}
)

func (c config) sizes() sizes {
	if c.toy {
		return toySizes
	}
	return fullSizes
}

// flowParams are the generator settings of the flow designs for a seed.
func flowParams(seed int64, sz sizes) []gen.Params {
	var ps []gen.Params
	for _, name := range flowPresets {
		p, ok := gen.PresetByName(name)
		if !ok {
			panic("benchmark: unknown preset " + name)
		}
		pp := p.Params(sz.flowScale)
		pp.Seed += seed
		ps = append(ps, pp)
	}
	return ps
}

// scaleParams is the scaling design: the 200k-cell point of BENCH_scale.json,
// whose generator seed is 1600, whatever the benchmark's seed. After 20
// iterations the placement is far from converged, and its WNS and TNS
// varied by a 40 % interquartile range across generator seeds; on one
// design they are a fixed point of the code, and only its times vary.
func scaleParams(sz sizes) gen.Params {
	return gen.DefaultParams("scale-200k", sz.scaleCells, 1600)
}

// fingerprint identifies a workload's generated inputs: their size and a
// hash of the Bookshelf file set they are saved as.
type fingerprint struct {
	Cells  int    `json:"cells"`
	Nets   int    `json:"nets"`
	Pins   int    `json:"pins"`
	SHA256 string `json:"sha256"`
}

//go:embed baseline.json
var baselineJSON []byte

// recordedFingerprint is the default-seed fingerprint baseline.json holds
// for a workload.
func recordedFingerprint(name string) (fingerprint, bool) {
	var b struct {
		Fingerprints map[string]fingerprint `json:"fingerprints"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return fingerprint{}, false
	}
	fp, ok := b.Fingerprints[name]
	return fp, ok
}

// prepare generates the workload's inputs into dir. The flow designs are
// saved as Bookshelf, the path dtgp-place reads; the scaling design is
// generated in memory by the measuring process, so here it is only
// generated when its fingerprint is wanted.
func (w workload) prepare(dir string, seed int64, sz sizes, wantFP bool) (*fingerprint, error) {
	// The generator's garbage is not the measured process's, but it shares
	// the machine with it.
	defer debug.FreeOSMemory()
	var ps []gen.Params
	switch {
	case !w.scale:
		ps = flowParams(seed, sz)
	case wantFP:
		ps = []gen.Params{scaleParams(sz)}
		dir = filepath.Join(dir, "fingerprint")
		defer os.RemoveAll(dir)
	default:
		return nil, nil
	}
	var fp fingerprint
	for _, p := range ps {
		d, con, err := gen.Generate(p)
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", p.Name, err)
		}
		if err := bookshelf.Save(dir, p.Name, d, con); err != nil {
			return nil, err
		}
		s := d.Stats()
		fp.Cells += s.Cells
		fp.Nets += s.Nets
		fp.Pins += s.Pins
	}
	if !wantFP {
		return nil, nil
	}
	sum, err := hashDir(dir)
	if err != nil {
		return nil, err
	}
	fp.SHA256 = sum
	return &fp, nil
}

// hashDir hashes the names and contents of the regular files in dir, in
// name order.
func hashDir(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", e.Name(), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fingerprints computes the default-seed fingerprint of every workload.
func fingerprints(c config) (map[string]fingerprint, error) {
	out := map[string]fingerprint{}
	for _, w := range workloads {
		dir := filepath.Join(c.state, "work", fmt.Sprintf("fingerprint-%s-%d", w.name, os.Getpid()))
		fp, err := w.prepare(dir, 0, c.sizes(), true)
		if rmErr := os.RemoveAll(dir); err == nil {
			err = rmErr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out[w.name] = *fp
	}
	return out, nil
}

// measure runs the workload in this process.
func (w workload) measure(c config, dir string, logf func(string, ...any)) (*measurement, error) {
	digests, err := openDigests(c, w.name)
	if err != nil {
		return nil, err
	}
	var m *measurement
	switch {
	case w.scale && c.trace:
		m, err = traceScale(c, dir, digests, logf)
	case w.scale:
		m, err = measureScale(c, digests, logf)
	case c.trace:
		m, err = traceFlows(w.mode, c, dir, digests, logf)
	default:
		m, err = measureFlows(w.mode, c, dir, digests, logf)
	}
	if err != nil {
		return nil, err
	}
	return m, digests.save()
}

// closedLoop runs one unit of work after another, the next starting when
// the previous one finishes, until the budget is spent; it always runs at
// least once. A unit starts only while the previous unit's duration still
// fits in what is left, so a run ends within one unit of its budget.
func closedLoop(budget time.Duration, unit func() error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		t0 := time.Now()
		if err := unit(); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// placementDigest hashes every cell position bit for bit.
func placementDigest(d *netlist.Design) string {
	h := sha256.New()
	var buf [16]byte
	for ci := range d.Cells {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(d.Cells[ci].Pos.X))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(d.Cells[ci].Pos.Y))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digests holds the final-placement digest of each design for one
// (workload, seed, size, binary) key. Runs share them through the state
// directory, traced or not, so a placement that differs between two runs of
// the same code, workload and seed — or two rounds of one run — fails the
// gate. A rebuilt binary starts a fresh record, since a code change may
// move placements legitimately.
type digests struct {
	path string
	m    map[string]string
}

func openDigests(c config, name string) (*digests, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(bin)
	key := fmt.Sprintf("%s-seed%d-toy%t-%x.json", name, c.seed, c.toy, sum[:6])
	s := &digests{path: filepath.Join(c.state, "digests", key), m: map[string]string{}}
	b, err := os.ReadFile(s.path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return s, nil
	case err != nil:
		return nil, err
	}
	if err := json.Unmarshal(b, &s.m); err != nil {
		return nil, fmt.Errorf("reading %s: %w", s.path, err)
	}
	return s, nil
}

// check compares a design's digest with the recorded one, recording it if
// there is none yet.
func (s *digests) check(design, digest string) error {
	if old, ok := s.m[design]; ok && old != digest {
		return fmt.Errorf("%s: final placement digest %s differs from %s of an earlier run with the same seed", design, digest, old)
	}
	s.m[design] = digest
	return nil
}

// save writes the digests through a rename, so a killed run never leaves
// a torn file behind.
func (s *digests) save() error {
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(s.m)
	if err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}
