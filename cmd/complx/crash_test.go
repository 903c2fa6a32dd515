package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"complx/internal/chkpt"
)

// hpwlRe extracts the final HPWL line from the CLI's report.
var hpwlRe = regexp.MustCompile(`(?m)^HPWL:\s+([0-9eE+.-]+)`)

func parseHPWL(t *testing.T, out []byte) float64 {
	t.Helper()
	m := hpwlRe.FindSubmatch(out)
	if m == nil {
		t.Fatalf("no HPWL line in output:\n%s", out)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatalf("bad HPWL %q: %v", m[1], err)
	}
	return v
}

// TestCrashSIGKILLResume is the end-to-end crash-recovery drill: it builds
// the real complx binary, SIGKILLs a checkpointing placement run mid-flight
// (no cleanup handler runs, exactly like a crash or OOM kill), then reruns
// with -resume and requires the recovered placement's HPWL to match the
// uninterrupted run within 0.1% (the engine-level contract is bitwise; the
// CLI check is deliberately looser so it stays robust to report formatting).
func TestCrashSIGKILLResume(t *testing.T) {
	// bigblue3 runs a couple of seconds at ~120ms per iteration: long
	// enough that a kill shortly after the first snapshot always lands
	// mid-run, short enough for a test. Legalization stays on — the
	// recovered run must end in a *legal* placement — only detailed
	// placement is skipped for speed.
	crashDrill(t, []string{"-bench", "bigblue3", "-skip-detailed"})
}

// TestCrashSIGKILLResumeMultilevel runs the same drill through the V-cycle:
// the kill lands inside a level's engine loop (usually the coarse solve,
// which dominates the run), and the resume must rebuild the coarsening
// stack, skip the already-solved coarser levels and finish the descent.
func TestCrashSIGKILLResumeMultilevel(t *testing.T) {
	crashDrill(t, []string{
		"-bench", "bigblue3", "-skip-detailed",
		"-multilevel", "-ml-target-cells", "2000", "-ml-refine-iters", "6",
	})
}

// crashDrill is the shared SIGKILL drill body: it waits for the first
// snapshot (chkpt.FileName) before killing.
func crashDrill(t *testing.T, args []string) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics are POSIX-only")
	}
	if testing.Short() {
		t.Skip("subprocess crash drill skipped in -short mode")
	}

	bin := filepath.Join(t.TempDir(), "complx-under-test")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building complx: %v\n%s", err, out)
	}

	// Uninterrupted reference.
	refOut, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("reference run: %v\n%s", err, refOut)
	}
	refHPWL := parseHPWL(t, refOut)

	// Crash victim: checkpoint every iteration, SIGKILL shortly after the
	// first snapshot hits the disk.
	ckptDir := t.TempDir()
	victim := exec.Command(bin, append(args, "-checkpoint", ckptDir, "-checkpoint-interval", "1")...)
	if err := victim.Start(); err != nil {
		t.Fatalf("starting victim: %v", err)
	}
	ckptFile := filepath.Join(ckptDir, chkpt.FileName)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if _, err := os.Stat(ckptFile); err == nil {
			break
		}
		if time.Now().After(deadline) {
			_ = victim.Process.Kill()
			t.Fatal("victim produced no checkpoint within 2 minutes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // let a few more iterations land
	_ = victim.Process.Kill()          // SIGKILL: no deferred cleanup runs
	_ = victim.Wait()

	// The kill must leave a readable snapshot behind (atomic replace).
	if _, err := os.Stat(ckptFile); err != nil {
		t.Fatalf("no checkpoint survived the kill: %v", err)
	}

	// Resume and compare.
	resOut, err := exec.Command(bin, append(args, "-checkpoint", ckptDir, "-resume")...).CombinedOutput()
	if err != nil {
		t.Fatalf("resumed run: %v\n%s", err, resOut)
	}
	if !strings.Contains(string(resOut), "resumed:") {
		t.Errorf("resumed run did not report resuming:\n%s", resOut)
	}
	if !strings.Contains(string(resOut), "legal violations: 0") {
		t.Errorf("resumed run is not legal:\n%s", resOut)
	}
	resHPWL := parseHPWL(t, resOut)
	if diff := math.Abs(resHPWL-refHPWL) / refHPWL; diff > 1e-3 {
		t.Errorf("resumed HPWL %.1f differs from uninterrupted %.1f by %.4f%% (limit 0.1%%)",
			resHPWL, refHPWL, 100*diff)
	}
}
