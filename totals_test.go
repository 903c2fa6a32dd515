package complx_test

import (
	"strings"
	"testing"

	"complx"
	"complx/internal/obs"
)

// TestResultTotalsMatchObserver pins the result contract's totals: for every
// global placer and driver, an uninterrupted observed run reports the same
// iteration and CG-iteration totals in its Result as the observer counted
// while the run executed, and every iteration reaches OnIteration and the
// observer's trace exactly once. The multi-segment drivers (V-cycle levels,
// the two-level clustered pass) must count every segment once.
func TestResultTotalsMatchObserver(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  complx.Options
		// check asserts the case really exercised its driver.
		check func(t *testing.T, res *complx.Result)
	}{
		{name: "complx"},
		{name: "simpl", opt: complx.Options{Algorithm: complx.AlgSimPL}},
		{
			name: "vcycle",
			opt:  complx.Options{Multilevel: complx.MultilevelOptions{Enabled: true, TargetCells: 150, RefineIters: 6}},
			check: func(t *testing.T, res *complx.Result) {
				levels := map[int]bool{}
				for _, st := range res.History {
					levels[st.Level] = true
				}
				if len(levels) < 2 {
					t.Errorf("History covers %d V-cycle level(s), want >= 2", len(levels))
				}
			},
		},
		{name: "clustered", opt: complx.Options{Clustered: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl := genOrDie(t, "totals-"+tc.name, 700, 23)
			opt := tc.opt
			opt.MaxIterations = 20
			opt.SkipLegalize, opt.SkipDetailed = true, true
			opt.Observer = complx.NewObserver()
			calls := 0
			opt.OnIteration = func(complx.IterStats) { calls++ }
			res, err := complx.Place(nl, opt)
			if err != nil {
				t.Fatal(err)
			}
			m := opt.Observer.Metrics().Snapshot()
			if got, want := res.GlobalIterations, int(m["complx_iterations_total"]); got != want || got == 0 {
				t.Errorf("GlobalIterations = %d, observer counted %d", got, want)
			}
			if got, want := res.CGIterations, int(m["complx_cg_iterations_total"]); got != want {
				t.Errorf("CGIterations = %d, observer counted %d", got, want)
			}
			if n, tr := calls, len(opt.Observer.Trace()); n != res.GlobalIterations || tr != res.GlobalIterations {
				t.Errorf("OnIteration calls = %d, observer trace = %d, GlobalIterations = %d", n, tr, res.GlobalIterations)
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

// TestVCycleSpanTree: a V-cycle run's trace attributes the coarsening to a
// coarsen span under global, beside the level_k spans, and those children
// fit inside global's own wall time.
func TestVCycleSpanTree(t *testing.T) {
	nl := genOrDie(t, "spans-vcycle", 700, 23)
	opt := complx.Options{
		MaxIterations: 10,
		SkipLegalize:  true,
		SkipDetailed:  true,
		Multilevel:    complx.MultilevelOptions{Enabled: true, TargetCells: 150, RefineIters: 4},
		Observer:      complx.NewObserver(),
	}
	if _, err := complx.Place(nl, opt); err != nil {
		t.Fatal(err)
	}
	var global *obs.SpanNode
	var find func([]*obs.SpanNode)
	find = func(nodes []*obs.SpanNode) {
		for _, n := range nodes {
			if n.Name == "global" {
				global = n
				return
			}
			find(n.Children)
		}
	}
	find(opt.Observer.Spans())
	if global == nil {
		t.Fatal("no global span in the trace")
	}
	var coarsen, levels int
	var sum float64
	for _, c := range global.Children {
		switch {
		case c.Name == "coarsen":
			coarsen++
		case strings.HasPrefix(c.Name, "level_"):
			levels++
		default:
			continue
		}
		sum += c.Seconds
	}
	if coarsen != 1 || levels < 2 {
		t.Fatalf("global has %d coarsen and %d level_k children, want 1 and >= 2", coarsen, levels)
	}
	if sum > global.Seconds {
		t.Errorf("coarsen and level_k spans add up to %.6f s, more than global's %.6f s", sum, global.Seconds)
	}
}
