package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"complx"
)

// outcome collects what one run measured and what its correctness gate
// found.
type outcome struct {
	workload  string
	facts     []string // "key=value", in the order recorded
	attempted int      // placements or jobs the gate judged
	failures  []string // one line per failed placement or job
	flipped   []string // workload facts that no longer hold
	values    map[string]float64
	samples   map[string][]float64 // the samples behind a median or percentile
	spans     []span               // traced runs only
}

func newOutcome(w workload, cfg config) *outcome {
	o := &outcome{workload: w.name, values: map[string]float64{}, samples: map[string][]float64{}}
	o.fact("workload", w.name)
	o.fact("seed", cfg.seed)
	o.fact("trace", cfg.trace)
	o.fact("gomaxprocs", runtime.GOMAXPROCS(0))
	o.fact("nproc", runtime.NumCPU())
	o.fact("go", runtime.Version())
	return o
}

func (o *outcome) fact(key string, v any) { o.facts = append(o.facts, fmt.Sprintf("%s=%v", key, v)) }

// design records the size of a generated design.
func (o *outcome) design(prefix string, nl *complx.Netlist) {
	o.fact(prefix+"design", nl.Name)
	o.fact(prefix+"cells", nl.NumCells())
	o.fact(prefix+"movable", nl.NumMovable())
	o.fact(prefix+"nets", nl.NumNets())
	o.fact(prefix+"pins", nl.NumPins())
}

// require records a fact the workload's rationale depends on and flags it
// when it no longer holds.
func (o *outcome) require(ok bool, format string, args ...any) {
	if !ok {
		o.flipped = append(o.flipped, fmt.Sprintf(format, args...))
	}
}

// judge counts one placement or job and records err as its failure.
func (o *outcome) judge(what string, err error) {
	o.attempted++
	if err != nil {
		o.failures = append(o.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

func (o *outcome) failed() int { return len(o.failures) }

func (o *outcome) correct() bool {
	return o.attempted > 0 && o.failed() == 0 && len(o.flipped) == 0
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setSamples sets a metric that summarizes the samples xs.
func (o *outcome) setSamples(name string, v float64, xs []float64) {
	o.values[name] = v
	o.samples[name] = xs
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes the human-readable report, the trace file of a traced run,
// and the result line last.
func (o *outcome) print(w io.Writer, cfg config) error {
	defs := endToEnd
	if cfg.trace == 1 {
		defs = perLayer
	}
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed(), Metrics: map[string]metric{}}
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench %s\n", strings.Join(o.facts, " "))
	for _, f := range o.flipped {
		fmt.Fprintf(&b, "FACT FLIPPED: %s\n", f)
	}
	for _, f := range o.failures {
		fmt.Fprintf(&b, "FAILED: %s\n", f)
	}
	fmt.Fprintf(&b, "failed_frac %.4g ratio (%d of %d)\n", float64(o.failed())/math.Max(1, float64(o.attempted)), o.failed(), o.attempted)
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// No valid sample (every placement failed); the run is already
			// incorrect, and JSON has no NaN.
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(&b, "%-30s %14.6g %s", d.name, v, d.unit)
		if xs, ok := o.samples[d.name]; ok {
			fmt.Fprintf(&b, "  (n=%d)", len(xs))
			if len(xs) <= 5 {
				fmt.Fprintf(&b, " %.4g", xs)
			}
		}
		b.WriteByte('\n')
	}
	if len(o.spans) > 0 {
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-seed%d.json", o.workload, cfg.seed))
		if err := writeSpans(path, o.spans); err != nil {
			return err
		}
		fmt.Fprintf(&b, "spans (self time, total; written to %s):\n", path)
		for _, s := range selfTimes(o.spans) {
			fmt.Fprintf(&b, "  %-28s self %10.4f s  total %10.4f s  calls %d\n", s.name, s.self, s.total, s.calls)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// verify is the correctness gate for one finished placement: it must be
// legal (complx.CheckLegal is empty), keep every movable cell inside the
// core, and report the HPWL its positions give.
func verify(nl *complx.Netlist, reportedHPWL float64) error {
	var errs []error
	if v := complx.CheckLegal(nl); len(v) > 0 {
		errs = append(errs, fmt.Errorf("%d legality violations, first: %s", len(v), v[0]))
	}
	const tol = 1e-6
	core := nl.Core
	for _, i := range nl.Movables() {
		c := &nl.Cells[i]
		if c.X < core.XMin-tol || c.Y < core.YMin-tol || c.X+c.W > core.XMax+tol || c.Y+c.H > core.YMax+tol {
			errs = append(errs, fmt.Errorf("movable cell %s at (%g, %g) lies outside the core", c.Name, c.X, c.Y))
			break
		}
	}
	if h := recomputeHPWL(nl); !(math.Abs(h-reportedHPWL) <= 1e-9*math.Max(1, math.Abs(h))) {
		errs = append(errs, fmt.Errorf("reported HPWL %.17g, positions give %.17g", reportedHPWL, h))
	}
	return errors.Join(errs...)
}

// recomputeHPWL sums the half-perimeter of every net's pin bounding box,
// independently of the library's evaluator.
func recomputeHPWL(nl *complx.Netlist) float64 {
	var total float64
	for n := range nl.Nets {
		pins := nl.Nets[n].Pins
		if len(pins) < 2 {
			continue
		}
		xmin, ymin := math.Inf(1), math.Inf(1)
		xmax, ymax := math.Inf(-1), math.Inf(-1)
		for _, p := range pins {
			pin := &nl.Pins[p]
			c := &nl.Cells[pin.Cell]
			x, y := c.X+c.W/2+pin.DX, c.Y+c.H/2+pin.DY
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
		total += (xmax - xmin) + (ymax - ymin)
	}
	return total
}

// positionHash fingerprints every cell position bit for bit.
func positionHash(nl *complx.Netlist) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for i := range nl.Cells {
		x, y := math.Float64bits(nl.Cells[i].X), math.Float64bits(nl.Cells[i].Y)
		for k := 0; k < 8; k++ {
			buf[k] = byte(x >> (8 * k))
			buf[8+k] = byte(y >> (8 * k))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// displace moves the first movable cell out of the core (the self-test's
// deliberately broken placement).
func displace(nl *complx.Netlist) {
	if mov := nl.Movables(); len(mov) > 0 {
		nl.Cells[mov[0]].X = nl.Core.XMax + 10*nl.Cells[mov[0]].W
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; NaN when xs is
// empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// peakRSSMB reads a process's peak resident set size from its rusage
// (ru_maxrss is in KiB on Linux).
func peakRSSMB(maxrssKiB int64) float64 { return float64(maxrssKiB) / 1024 }

func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
