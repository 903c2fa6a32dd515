package par

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// limitKernel is the same determinism-patterned reduction the SetThreads
// test uses: per-chunk partials indexed by lo/grain, merged in index order.
func limitKernel(n, grain int) float64 { return limitKernelVia(For, n, grain) }

// limitKernelVia is limitKernel with its chunks launched through launch.
func limitKernelVia(launch func(n, grain int, fn func(lo, hi int)), n, grain int) float64 {
	parts := make([]float64, Chunks(n, grain))
	launch(n, grain, func(lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += math.Sqrt(float64(i%89)) * 0.25
		}
		parts[lo/grain] = s
	})
	total := 0.0
	for _, p := range parts {
		total += p
	}
	return total
}

// TestLimitBudgetOne proves that a budget-1 job runs every chunk strictly on
// its calling goroutine: the goroutine id observed inside each chunk must be
// the caller's, no matter how large the global pool is.
func TestLimitBudgetOne(t *testing.T) {
	SetThreads(8)
	defer SetThreads(0)

	caller := goid()
	var mu sync.Mutex
	foreign := 0
	With(NewLimit(1), func() {
		For(1<<12, 64, func(lo, hi int) {
			if goid() != caller {
				mu.Lock()
				foreign++
				mu.Unlock()
			}
		})
	})
	if foreign > 0 {
		t.Fatalf("budget-1 job ran %d chunks on helper goroutines", foreign)
	}
}

// TestLimitHelperCap proves a budget-b job never has more than b−1 helper
// goroutines in flight, across concurrent kernel launches from two job-owned
// goroutines (the qp x/y split shape). The Limit bounds helpers in flight,
// not the set of pool workers that serve the job over time — any parked
// worker may take a helper task — so the check is the peak number of
// goroutines inside chunks at once.
func TestLimitHelperCap(t *testing.T) {
	SetThreads(8)
	defer SetThreads(0)

	const budget = 3
	lim := NewLimit(budget)
	var wg sync.WaitGroup
	wg.Add(2)
	var m concurrency
	for k := 0; k < 2; k++ {
		go func() {
			defer wg.Done()
			With(lim, func() {
				for r := 0; r < 20; r++ {
					For(1<<10, 32, func(lo, hi int) { m.chunk(lim) })
				}
			})
		}()
	}
	wg.Wait()
	m.check(t, budget, 2)
}

// concurrency records, across the chunks of a budgeted job, the peak number
// of goroutines inside a chunk at once and whether the Limit's in-flight
// helper count ever exceeded its budget.
type concurrency struct {
	inside, peak atomic.Int32
	overHelpers  atomic.Bool
}

// chunk is the body of every chunk. It sleeps inside, so every goroutine
// that has claimed a chunk is counted at once even on a machine with fewer
// cores than goroutines.
func (m *concurrency) chunk(lim *Limit) {
	n := m.inside.Add(1)
	for {
		p := m.peak.Load()
		if n <= p || m.peak.CompareAndSwap(p, n) {
			break
		}
	}
	if int(lim.helpers.Load()) > lim.Budget()-1 {
		m.overHelpers.Store(true)
	}
	time.Sleep(20 * time.Microsecond)
	m.inside.Add(-1)
}

// check fails t when the job exceeded its budget: at most the launching
// goroutines plus budget−1 helpers may be inside chunks at once.
func (m *concurrency) check(t *testing.T, budget, launchers int) {
	t.Helper()
	if m.overHelpers.Load() {
		t.Errorf("helper in-flight count exceeded budget-1 (%d)", budget-1)
	}
	if p := int(m.peak.Load()); p > launchers+budget-1 {
		t.Errorf("peak of %d goroutines inside chunks at once, want <= %d", p, launchers+budget-1)
	}
}

// TestLimitDeterminism: the same kernel must produce bitwise-identical
// results serial, globally parallel, and under every budget, including
// concurrent jobs with different budgets.
func TestLimitDeterminism(t *testing.T) {
	SetThreads(1)
	want := limitKernel(1<<14, 128)
	SetThreads(8)
	defer SetThreads(0)

	if got := limitKernel(1<<14, 128); got != want {
		t.Fatalf("global-parallel kernel %v != serial %v", got, want)
	}
	var wg sync.WaitGroup
	errc := make(chan string, 8)
	for _, budget := range []int{1, 2, 3, 0} {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			With(NewLimit(b), func() {
				for r := 0; r < 20; r++ {
					if got := limitKernel(1<<14, 128); got != want {
						errc <- "budgeted kernel result diverged"
						return
					}
				}
			})
		}(budget)
	}
	wg.Wait()
	close(errc)
	for msg := range errc {
		t.Fatal(msg)
	}
}

// TestLimitNesting: the innermost With wins, the outer binding is restored,
// and a nil Limit passes through unbound.
func TestLimitNesting(t *testing.T) {
	if Current() != nil {
		t.Fatal("goroutine unexpectedly bound at test start")
	}
	outer, inner := NewLimit(2), NewLimit(1)
	With(outer, func() {
		if Current() != outer {
			t.Error("outer binding not visible")
		}
		With(inner, func() {
			if Current() != inner {
				t.Error("inner binding not visible")
			}
		})
		if Current() != outer {
			t.Error("outer binding not restored after inner With")
		}
		With(nil, func() {
			if Current() != outer {
				t.Error("nil With must not disturb the binding")
			}
		})
	})
	if Current() != nil {
		t.Fatal("binding leaked past With")
	}
}

// TestLimitSetClamp: Set normalizes negatives to uncapped and Budget
// reports the configured value.
func TestLimitSetClamp(t *testing.T) {
	l := NewLimit(-5)
	if l.Budget() != 0 {
		t.Fatalf("NewLimit(-5).Budget() = %d, want 0 (uncapped)", l.Budget())
	}
	l.Set(4)
	if l.Budget() != 4 {
		t.Fatalf("Budget() = %d after Set(4)", l.Budget())
	}
}

// TestRunInBudgetOne: a budget-1 Limit passed to RunIn/ForIn keeps every
// chunk on the calling goroutine, which need not be bound itself.
func TestRunInBudgetOne(t *testing.T) {
	SetThreads(8)
	defer SetThreads(0)

	caller := goid()
	lim := NewLimit(1)
	var foreign atomic.Int32
	onCaller := func() {
		if goid() != caller {
			foreign.Add(1)
		}
	}
	ForIn(lim, 1<<12, 64, func(lo, hi int) { onCaller() })
	RunIn(lim, 64, func(int) { onCaller() })
	if n := foreign.Load(); n > 0 {
		t.Fatalf("budget-1 RunIn/ForIn ran %d chunks on helper goroutines", n)
	}
}

// TestRunInHelperCap is TestLimitHelperCap with the Limit passed to ForIn
// by two unbound goroutines instead of bound with With: the resolved Limit
// must cap helpers in flight exactly as a binding does.
func TestRunInHelperCap(t *testing.T) {
	SetThreads(8)
	defer SetThreads(0)

	const budget = 3
	lim := NewLimit(budget)
	var wg sync.WaitGroup
	wg.Add(2)
	var m concurrency
	for k := 0; k < 2; k++ {
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				ForIn(lim, 1<<10, 32, func(lo, hi int) { m.chunk(lim) })
			}
		}()
	}
	wg.Wait()
	m.check(t, budget, 2)
}

// TestRunInDeterminism: ForIn under a resolved Limit of any budget, or
// none, gives the bits of the serial For.
func TestRunInDeterminism(t *testing.T) {
	SetThreads(1)
	want := limitKernel(1<<14, 128)
	SetThreads(8)
	defer SetThreads(0)

	for k, lim := range []*Limit{nil, NewLimit(0), NewLimit(1), NewLimit(2), NewLimit(3)} {
		forIn := func(n, grain int, fn func(lo, hi int)) { ForIn(lim, n, grain, fn) }
		for r := 0; r < 10; r++ {
			if got := limitKernelVia(forIn, 1<<14, 128); got != want {
				t.Fatalf("ForIn kernel under limit %d = %v, want %v", k, got, want)
			}
		}
	}
}
