// Command dtgp-place runs global placement on a saved benchmark with one of
// the three flows and reports WNS/TNS/HPWL/runtime; the placed .pl (and the
// full file set) is written back out.
//
// Exit codes: 0 success, 1 load/placement failure (one-line diagnostic on
// stderr naming the offending file and line), 2 usage error, 3 the run
// finished but only by surrendering to a persistent numerical fault or an
// exceeded -deadline — the written placement is the best finite iterate,
// not a converged solution, 4 -resume failed (missing, corrupt, truncated,
// version-skewed or mismatched checkpoint) — the run refuses to fall back
// to a cold start silently; the typed error and checkpoint context are
// printed on stderr.
//
// With -checkpoint-dir every healthy supervisor checkpoint is durably
// persisted (temp file + fsync + atomic rename), -resume continues a killed
// run bit-identically from the latest committed snapshot, and -deadline
// bounds the wall clock: on expiry the run persists a final checkpoint and
// exits via the graceful-surrender path.
//
// Usage:
//
//	dtgp-place -design bench/superblue4 -flow difftiming -out placed/
//	dtgp-place -design bench/superblue4 -checkpoint-dir ckpt/ -deadline 10m
//	dtgp-place -design bench/superblue4 -checkpoint-dir ckpt/ -resume
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dtgp"
)

// errSurrendered marks a run that completed only via the supervisor's
// graceful-degradation path; main maps it to exit code 3.
var errSurrendered = fmt.Errorf("placement surrendered to a persistent fault")

// resumeError marks a failed -resume; main maps it to exit code 4.
type resumeError struct{ err error }

func (e *resumeError) Error() string { return e.err.Error() }
func (e *resumeError) Unwrap() error { return e.err }

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dtgp-place: %v\n", err)
		var re *resumeError
		switch {
		case errors.As(err, &re):
			os.Exit(4)
		case err == errSurrendered:
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		design   = flag.String("design", "", "path prefix of the benchmark (dir/base)")
		flowStr  = flag.String("flow", "difftiming", "flow: wirelength | netweight | difftiming")
		out      = flag.String("out", "", "output directory for the placed design (default: in place)")
		svg      = flag.String("svg", "", "write a slack-coloured placement SVG to this path")
		iters    = flag.Int("iters", 0, "max iterations (0 = default)")
		ckptDir  = flag.String("checkpoint-dir", "", "durably persist supervisor checkpoints into this directory (crash-consistent)")
		ckptKeep = flag.Int("checkpoint-keep", 4, "checkpoints retained in -checkpoint-dir (0 = keep all)")
		resume   = flag.Bool("resume", false, "resume from the latest checkpoint in -checkpoint-dir (exit 4 if it cannot be loaded)")
		deadline = flag.Duration("deadline", 0, "wall-clock budget; on expiry the run persists a final checkpoint and surrenders the best iterate (exit 3)")
		verbose  = flag.Bool("v", false, "progress output")
	)
	flag.Parse()
	if *design == "" {
		fmt.Fprintln(os.Stderr, "dtgp-place: -design is required")
		os.Exit(2)
	}
	var flow dtgp.Flow
	switch *flowStr {
	case "wirelength", "wl":
		flow = dtgp.FlowWirelength
	case "netweight", "nw":
		flow = dtgp.FlowNetWeight
	case "difftiming", "dt":
		flow = dtgp.FlowDiffTiming
	default:
		fmt.Fprintf(os.Stderr, "dtgp-place: unknown flow %q\n", *flowStr)
		os.Exit(2)
	}
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "dtgp-place: -resume requires -checkpoint-dir")
		os.Exit(2)
	}

	dir, base := filepath.Split(*design)
	if dir == "" {
		dir = "."
	}
	d, con, err := dtgp.LoadBenchmark(dir, base)
	if err != nil {
		return err
	}
	opts := dtgp.DefaultPlaceOptions(flow)
	if *iters > 0 {
		opts.MaxIters = *iters
	}
	opts.CheckpointDir = *ckptDir
	opts.CheckpointKeep = *ckptKeep
	if *deadline > 0 {
		opts.Deadline = time.Now().Add(*deadline)
	}
	if *verbose {
		opts.Logf = func(f string, a ...any) { fmt.Printf(f+"\n", a...) }
	}
	if *resume {
		store, err := dtgp.OpenCheckpointStore(*ckptDir, *ckptKeep)
		if err != nil {
			return &resumeError{fmt.Errorf("resume failed: %w", err)}
		}
		cp, path, err := store.LoadLatest()
		if err != nil {
			// The typed decode error names the file, the failing section
			// and the cause; never fall through to a cold start.
			return &resumeError{fmt.Errorf("resume failed (placement NOT started; "+
				"remove or repair %s to cold-start deliberately): %w",
				*ckptDir, err)}
		}
		opts.Resume = cp
		fmt.Printf("resuming   : iter %d (%s, overflow %.3f)\n", cp.Iter, path, cp.Overflow)
	}
	res, err := dtgp.Place(d, con, flow, &opts)
	if err != nil {
		if errors.Is(err, dtgp.ErrCheckpointMismatch) {
			return &resumeError{fmt.Errorf("resume failed: %w", err)}
		}
		return fmt.Errorf("placing %s: %w", *design, err)
	}
	fmt.Printf("flow       : %v\n", res.Mode)
	fmt.Printf("iterations : %d\n", res.Iterations)
	fmt.Printf("HPWL       : %.4g\n", res.HPWL)
	fmt.Printf("WNS        : %.3f ps\n", res.WNS)
	fmt.Printf("TNS        : %.3f ps\n", res.TNS)
	fmt.Printf("runtime    : %v\n", res.Runtime)
	if res.Legal != nil {
		fmt.Printf("legalized  : %d cells, avg disp %.2f, max disp %.2f\n",
			res.Legal.Moved, res.Legal.AvgDisplacement, res.Legal.MaxDisplacement)
	}
	rec := res.Recovery
	if rec.ResumedFrom >= 0 {
		fmt.Printf("resumed    : from checkpoint at iter %d\n", rec.ResumedFrom)
	}
	if rec.DurableIter >= 0 {
		fmt.Printf("checkpoint : iter %d durably committed in %s\n", rec.DurableIter, *ckptDir)
	}
	if !rec.Healthy() {
		// Structured recovery report: what faulted, when, and how the
		// supervisor responded.
		rec.Write(os.Stderr)
	}

	outDir := dir
	if *out != "" {
		outDir = *out
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			return err
		}
		if err := dtgp.WritePlacementSVG(f, d, res.STA); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", *svg, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing %s: %w", *svg, err)
		}
		fmt.Printf("wrote %s\n", *svg)
	}
	if err := dtgp.SaveBenchmark(outDir, base, d, con); err != nil {
		return fmt.Errorf("saving placed design: %w", err)
	}
	fmt.Printf("wrote %s/%s.*\n", outDir, base)
	if rec.Surrendered {
		return errSurrendered
	}
	return nil
}
