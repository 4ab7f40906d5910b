// Command benchmark measures the dtgp placer end to end on four workloads —
// the paper's three Table 3 flows on generated superblue designs and a
// 200k-cell scaling run — and, with -trace 1, layer by layer by timing calls
// into each layer's public functions from these files.
//
// Run it from the repository root through the wrapper, which builds it
// from the checkout's sources:
//
//	bash benchmark/run.sh --workload flow-dt --seed 3 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload flow-nw --trace 1 --spans spans.json
//	bash benchmark/run.sh --workload all --runs 10 --json runs.json
//	bash benchmark/run.sh --compare base.json new.json
//	bash benchmark/run.sh --summarize runs.json > benchmark/baseline.json
//
// For one workload and one run the last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics (name → value
// and unit).
//
// Exit codes: 0 success; 1 a flow failed the correctness gate or could not
// run; 2 usage error; 3 the generated inputs no longer match the
// fingerprints in baseline.json, so the baseline has to be re-measured
// rather than compared.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Exit codes.
const (
	exitOK       = 0
	exitFailed   = 1
	exitUsage    = 2
	exitInputsID = 3
)

// childEnv marks a process started by the parent to measure one workload
// (the test binary reads it too, so the smoke test drives the same path).
const childEnv = "DTGP_BENCH_CHILD"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	jsonOut  string
	spansOut string
	state    string
	toy      bool
}

func (c config) budget() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// run is main without the process exit, so tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traceLevel, runs int
	fs.StringVar(&c.workload, "workload", "all", "workload: flow-dt | flow-nw | flow-wl | scale-200k | all")
	fs.Int64Var(&c.seed, "seed", 0, "input seed, added to each design's own seed (0 = the presets' seeds)")
	fs.Float64Var(&c.seconds, "seconds", 20, "measurement budget of one run in seconds (every design always runs once)")
	fs.IntVar(&traceLevel, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.IntVar(&runs, "runs", 1, "runs per workload, run i with seed -seed + i, each in a process of its own")
	fs.StringVar(&c.jsonOut, "json", "", "append each run's record (metrics plus CPU count, GOMAXPROCS, Go version, revision) as a JSON line")
	fs.StringVar(&c.spansOut, "spans", "", "with -trace 1, write the recorded spans to this JSON file")
	fs.StringVar(&c.state, "state", ".bench_build", "directory for generated inputs and placement digests")
	fs.BoolVar(&c.toy, "toy", false, "toy-size designs (smoke tests only; no fingerprint check)")
	compare := fs.String("compare", "", "compare two record files by the bounds in ./BENCHMARK.json: -compare base.json new.json")
	summarize := fs.String("summarize", "", "print the default-seed fingerprints and the median, quartiles and n per workload and metric of a record file, as baseline.json holds them")
	child := fs.String("child", "", "internal: measure in this process, reading inputs from this directory")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if traceLevel != 0 && traceLevel != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace must be 0 or 1, got %d\n", traceLevel)
		return exitUsage
	}
	if runs < 1 || c.seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: -runs must be at least 1 and -seconds not negative")
		return exitUsage
	}
	c.trace = traceLevel == 1

	switch {
	case *compare != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "benchmark: usage: -compare base.json new.json")
			return exitUsage
		}
		return runCompare(*compare, fs.Arg(0), stdout, stderr)
	case *summarize != "":
		return runSummarize(c, *summarize, stdout, stderr)
	}

	var ws []workload
	if c.workload == "all" {
		ws = workloads
	} else {
		w, ok := workloadByName(c.workload)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %v and all)\n", c.workload, workloadNames())
			return exitUsage
		}
		ws = []workload{w}
	}
	if *child != "" {
		return runChild(ws[0], c, *child, stdout, stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for _, w := range ws {
		for i := 0; i < runs; i++ {
			ci := c
			ci.seed += int64(i)
			if code := runParent(ctx, w, ci, stdout, stderr); code != exitOK {
				return code
			}
		}
	}
	return exitOK
}

// runParent generates the workload's inputs without timing them, checks
// their fingerprint, and measures the workload in a child process of its
// own, so the child's peak RSS is the workload's and not the generator's.
func runParent(ctx context.Context, w workload, c config, stdout, stderr io.Writer) int {
	work, err := filepath.Abs(filepath.Join(c.state, "work", fmt.Sprintf("%s-%d-%d", w.name, c.seed, os.Getpid())))
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return exitFailed
	}
	defer os.RemoveAll(work)
	fp, err := w.prepare(work, c.seed, c.sizes(), c.seed == 0 && !c.toy)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: generating inputs: %v\n", w.name, err)
		return exitFailed
	}
	if fp != nil {
		if want, ok := recordedFingerprint(w.name); ok && *fp != want {
			fmt.Fprintf(stderr, "benchmark: %s: the generated inputs changed (got %+v, baseline.json has %+v); "+
				"re-measure the baseline instead of comparing against it\n", w.name, *fp, want)
			return exitInputsID
		}
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: locating own executable: %v\n", err)
		return exitFailed
	}
	args := []string{
		"-child", work, "-workload", w.name,
		"-seed", strconv.FormatInt(c.seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(btoi(c.trace)),
		"-state", c.state, "-json", c.jsonOut, "-spans", c.spansOut,
		"-toy=" + strconv.FormatBool(c.toy),
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS="+strconv.Itoa(w.lanes()))
	cmd.Stdout, cmd.Stderr = stdout, stderr
	// The kernel kills a measuring child whose parent dies, so a benchmark
	// stopped by SIGKILL leaves no process behind. The benchmark needs Linux
	// anyway, for its procfs peak-RSS probe.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
		return exitOK
	case errors.As(err, &exitErr) && exitErr.ExitCode() > 0:
		return exitErr.ExitCode()
	default:
		fmt.Fprintf(stderr, "benchmark: %s: child: %v\n", w.name, err)
		return exitFailed
	}
}

// runChild measures one workload in this process and prints its result.
func runChild(w workload, c config, work string, stdout, stderr io.Writer) int {
	logf := func(format string, args ...any) { fmt.Fprintf(stderr, w.name+": "+format+"\n", args...) }
	m, err := w.measure(c, work, logf)
	if err != nil {
		logf("%v", err)
		return exitFailed
	}
	res := m.result(c.trace)
	if err := writeResult(stdout, res); err != nil {
		logf("writing result: %v", err)
		return exitFailed
	}
	if c.jsonOut != "" {
		rec := record{Workload: w.name, Seed: c.seed, Trace: c.trace, Seconds: c.seconds, Result: res, Env: currentEnv()}
		if err := appendRecord(c.jsonOut, rec); err != nil {
			logf("writing %s: %v", c.jsonOut, err)
			return exitFailed
		}
	}
	if c.trace && c.spansOut != "" {
		if err := m.spans.write(c.spansOut); err != nil {
			logf("writing %s: %v", c.spansOut, err)
			return exitFailed
		}
	}
	if !res.Correct {
		return exitFailed
	}
	return exitOK
}

// runSummarize prints baseline.json: the default-seed input fingerprints,
// the environments of the records, and per workload and metric the median,
// quartiles and run count of a record file.
func runSummarize(c config, path string, stdout, stderr io.Writer) int {
	recs, err := readRecords(path)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return exitUsage
	}
	fps, err := fingerprints(c)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return exitFailed
	}
	b, err := json.MarshalIndent(map[string]any{
		"fingerprints": fps,
		"env":          envsOf(recs),
		"baseline":     summarize(recs),
	}, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return exitFailed
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return exitOK
}
