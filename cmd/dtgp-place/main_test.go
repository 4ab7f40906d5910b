package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dtgp"
)

// buildPlacer compiles the command once per test binary.
func buildPlacer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dtgp-place")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("building dtgp-place: %v\n%s", err, out)
	}
	return bin
}

// smallBench writes a tiny benchmark to disk and returns its -design prefix.
func smallBench(t *testing.T) string {
	t.Helper()
	d, con, err := dtgp.GenerateCustom("exit-test", 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := dtgp.SaveBenchmark(dir, "exit-test", d, con); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "exit-test")
}

func runPlacer(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v\n%s", args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestExitCodeContract pins the documented exit codes: 2 for usage errors,
// 4 for a failed -resume (which must never silently cold-start), 0 for a
// healthy run.
func TestExitCodeContract(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildPlacer(t)
	design := smallBench(t)

	// Usage errors → 2.
	if code, _ := runPlacer(t, bin); code != 2 {
		t.Errorf("no -design: exit %d, want 2", code)
	}
	if code, _ := runPlacer(t, bin, "-design", design, "-resume"); code != 2 {
		t.Errorf("-resume without -checkpoint-dir: exit %d, want 2", code)
	}

	// Failed resume → 4, with the typed context on stderr and no placement.
	empty := t.TempDir()
	code, out := runPlacer(t, bin, "-design", design, "-checkpoint-dir", empty, "-resume")
	if code != 4 {
		t.Errorf("-resume from empty dir: exit %d, want 4\n%s", code, out)
	}
	if !strings.Contains(out, "no checkpoint") || !strings.Contains(out, "NOT started") {
		t.Errorf("resume failure lacks typed context/remediation:\n%s", out)
	}

	// Healthy durable run → 0, then a corrupt checkpoint → 4.
	outDir := t.TempDir()
	ckptDir := t.TempDir()
	code, out = runPlacer(t, bin, "-design", design, "-flow", "wl",
		"-iters", "30", "-out", outDir, "-checkpoint-dir", ckptDir)
	if code != 0 {
		t.Fatalf("healthy durable run: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "durably committed") {
		t.Errorf("healthy durable run did not report its checkpoint:\n%s", out)
	}
	names, err := os.ReadDir(ckptDir)
	if err != nil || len(names) == 0 {
		t.Fatalf("no durable checkpoints written: %v", err)
	}
	last := filepath.Join(ckptDir, names[len(names)-1].Name())
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x10
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runPlacer(t, bin, "-design", design, "-checkpoint-dir", ckptDir, "-resume")
	if code != 4 {
		t.Errorf("-resume from corrupt checkpoint: exit %d, want 4\n%s", code, out)
	}
	if !strings.Contains(out, "corrupt") {
		t.Errorf("corrupt-resume failure lacks the typed cause:\n%s", out)
	}
}
