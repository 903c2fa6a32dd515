package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// toyWorkloads are the benchmark's workloads shrunk to run in seconds. The
// toy V-cycle coarsens to 300 cells so it still builds two levels, and
// every toy design is small enough to resolve to Jacobi.
func toyWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		w.wantPrecond = "jacobi"
		switch {
		case w.clients > 0:
			w.kinds = []designKind{{"adaptec1", 0.05}, {"newblue1", 0.05}}
			w.designs = 4
		case w.multilevel:
			w.kinds = []designKind{{"bigblue3", 0.1}}
			w.mlTargetCells = 300
		default:
			w.kinds = []designKind{{"bigblue3", 0.05}}
		}
		out = append(out, w)
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// buildComplxd builds the daemon the jobs workload drives.
func buildComplxd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "complxd")
	cmd := exec.Command("go", "build", "-o", bin, "complx/cmd/complxd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build complxd: %v\n%s", err, out)
	}
	return bin
}

// runToy runs one toy workload and returns its report and result line.
func runToy(t *testing.T, w workload, cfg config) (*outcome, string, result) {
	t.Helper()
	out, err := run(context.Background(), w, cfg)
	if err != nil {
		t.Fatalf("%s trace=%d: %v", w.name, cfg.trace, err)
	}
	var buf bytes.Buffer
	if err := out.print(&buf, cfg); err != nil {
		t.Fatalf("%s trace=%d: print: %v", w.name, cfg.trace, err)
	}
	report := buf.String()
	lines := strings.Split(strings.TrimSpace(report), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%d: last line is not the result: %v\n%s", w.name, cfg.trace, err, report)
	}
	return out, report, res
}

// TestToyWorkloads runs every workload once untraced and once traced at toy
// scale. Each run must pass the correctness gate and print exactly the
// metrics BENCHMARK.json names for its mode, each with its unit.
func TestToyWorkloads(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness defines %d", len(bf.Workloads), len(workloads))
	}
	for _, bw := range bf.Workloads {
		if _, ok := workloadByName(bw.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not defined", bw.Name)
		}
	}
	units := [2]map[string]string{{}, {}}
	for _, m := range bf.EndToEnd {
		units[0][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[1][m.Name] = m.Unit
	}

	bin := buildComplxd(t)
	for _, w := range toyWorkloads() {
		for trace := 0; trace <= 1; trace++ {
			cfg := config{workload: w.name, seed: DefaultSeed, trace: trace, complxd: bin, work: t.TempDir()}
			out, report, res := runToy(t, w, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d; flipped %v, failures %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, out.flipped, out.failures)
			}
			if len(res.Metrics) != len(units[trace]) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(units[trace]))
			}
			for name, unit := range units[trace] {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
				if !strings.Contains(report, name+" ") || !strings.Contains(report, " "+unit) {
					t.Errorf("%s trace=%d: report does not print %s with its unit %s", w.name, trace, name, unit)
				}
			}
			for _, name := range []string{"place_s", "setup_s", "hpwl", "job_turnaround_p50_s", "jobs_per_s"} {
				if m, ok := res.Metrics[name]; trace == 0 && ok && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, m.Value)
				}
			}
			if trace == 1 && len(out.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
	}
}

// TestDisplacedCellFails proves the gate: a placement with one cell moved
// out of the core is counted in failed_frac and fails the run.
func TestDisplacedCellFails(t *testing.T) {
	w := toyWorkloads()[0]
	cfg := config{workload: w.name, seed: HeldOutSeed, work: t.TempDir(), displaceFirst: true}
	out, _, res := runToy(t, w, cfg)
	if res.Correct || res.Failed != 1 || res.Attempted != w.designs {
		t.Fatalf("displaced cell: correct=%v attempted=%d failed=%d, want false %d 1 (failures %v)",
			res.Correct, res.Attempted, res.Failed, w.designs, out.failures)
	}
}

// TestRecordCatchesDrift proves the cross-run gate: a second run at the same
// seed passes against the first run's record, and a run against a record
// whose HPWL differs fails.
func TestRecordCatchesDrift(t *testing.T) {
	w := toyWorkloads()[0]
	cfg := config{workload: w.name, seed: DefaultSeed, work: t.TempDir()}
	for i := 0; i < 2; i++ {
		if _, _, res := runToy(t, w, cfg); !res.Correct {
			t.Fatalf("run %d at one seed: correct=false", i)
		}
	}
	path := filepath.Join(cfg.work, fmt.Sprintf("hpwl-%s-seed%d.json", w.name, cfg.seed))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	r.HPWL[1]++
	if data, err = json.Marshal(r); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, res := runToy(t, w, cfg); res.Correct || res.Failed != 1 {
		t.Fatalf("run against a drifted record: correct=%v failed=%d, want false 1", res.Correct, res.Failed)
	}
}
