package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestPairRunsEachChunkOnce: a Pair launch runs fn(0) and fn(1) exactly
// once each at every thread cap and budget, and a budget-1 launch keeps
// both on the calling goroutine.
func TestPairRunsEachChunkOnce(t *testing.T) {
	defer SetThreads(0)
	var hits [2]atomic.Int32
	var foreign atomic.Int32
	caller := goid()
	p := NewPair(func(c int) {
		hits[c].Add(1)
		if goid() != caller {
			foreign.Add(1)
		}
	})
	for _, threads := range []int{1, 2, 8} {
		SetThreads(threads)
		for k, lim := range []*Limit{nil, NewLimit(0), NewLimit(1), NewLimit(2)} {
			for r := 0; r < 50; r++ {
				hits[0].Store(0)
				hits[1].Store(0)
				foreign.Store(0)
				p.Run(lim)
				if hits[0].Load() != 1 || hits[1].Load() != 1 {
					t.Fatalf("threads=%d limit %d: chunks ran %d and %d times", threads, k, hits[0].Load(), hits[1].Load())
				}
				if (threads == 1 || lim != nil && lim.Budget() == 1) && foreign.Load() > 0 {
					t.Fatalf("threads=%d limit %d: a serial launch ran a chunk on a helper", threads, k)
				}
			}
		}
	}
}

// TestPairHelperCap is TestRunInHelperCap for Pair launches: two unbound
// goroutines sharing one Limit, each with its own Pair, never have more
// than budget−1 helpers in flight between them.
func TestPairHelperCap(t *testing.T) {
	SetThreads(8)
	defer SetThreads(0)

	const budget = 2
	lim := NewLimit(budget)
	var wg sync.WaitGroup
	wg.Add(2)
	var m concurrency
	for k := 0; k < 2; k++ {
		go func() {
			defer wg.Done()
			p := NewPair(func(int) { m.chunk(lim) })
			for r := 0; r < 200; r++ {
				p.Run(lim)
			}
		}()
	}
	wg.Wait()
	m.check(t, budget, 2)
	if h := lim.helpers.Load(); h != 0 {
		t.Fatalf("%d helper slots still held after the launches returned", h)
	}
}

// TestPairAllocs: once a Pair has run, a launch allocates nothing, whether
// a helper takes a chunk or the caller runs both.
func TestPairAllocs(t *testing.T) {
	defer SetThreads(0)
	sink := make([]float64, 2)
	p := NewPair(func(c int) { sink[c]++ })
	for _, threads := range []int{1, 2} {
		SetThreads(threads)
		p.Run(nil)
		if a := testing.AllocsPerRun(100, func() { p.Run(nil) }); a != 0 {
			t.Errorf("threads=%d: Pair.Run made %v allocations, want 0", threads, a)
		}
	}
}
