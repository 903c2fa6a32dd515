package complx_test

import (
	"testing"

	"complx"
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
