// Package par provides the shared worker pool that parallelizes the primal
// hot path — sparse matrix-vector products, vector reductions, system
// assembly, HPWL evaluation and density binning — and the dual step's
// feasibility projection, whose region recursion forks two ways (Pair).
//
// # Determinism contract
//
// Every caller of this package follows one rule: the *work decomposition*
// (chunk boundaries, block sizes, shard partitions) is a pure function of the
// problem size, never of the worker count. The pool only decides *which
// goroutine* executes a chunk, and reductions merge per-chunk partials in
// fixed index order. Consequently results are bitwise identical at any
// parallelism level — `SetThreads(1)` and `SetThreads(64)` produce the same
// floating-point output, which keeps placement runs reproducible (see
// internal/experiments/determinism_test.go).
//
// # Scheduling
//
// The pool keeps persistent worker goroutines parked on an unbuffered
// channel. Run hands helper tasks to parked workers with a non-blocking
// send; when no worker is free (or the pool is nested inside another Run)
// the calling goroutine simply executes the chunks itself. Chunks are
// claimed from an atomic counter, so load balances dynamically without
// affecting results. This design cannot deadlock under nesting or
// concurrent callers (e.g. the x/y dimension split in qp.Solve, where both
// solves issue parallel kernels at once).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	initOnce sync.Once
	// threads is the effective parallelism cap (0 = uninitialized).
	threads atomic.Int32
	// spawned counts live worker goroutines.
	spawned int32
	spawnMu sync.Mutex
	// work delivers helper tasks to parked workers, which pass each task
	// their goroutine id. Never closed.
	work chan func(workerID uint64)
)

func ensureInit() {
	initOnce.Do(func() {
		work = make(chan func(uint64))
		n := runtime.GOMAXPROCS(0)
		if n < 1 {
			n = 1
		}
		threads.Store(int32(n))
		ensureWorkers(n - 1)
	})
}

// ensureWorkers grows the parked-worker set to at least n goroutines.
func ensureWorkers(n int) {
	spawnMu.Lock()
	for spawned < int32(n) {
		go worker()
		spawned++
	}
	spawnMu.Unlock()
}

func worker() {
	id := goid()
	for t := range work {
		t(id)
	}
}

// Threads returns the effective parallelism: the maximum number of
// goroutines (including the caller) that Run will use for one invocation.
func Threads() int {
	ensureInit()
	return int(threads.Load())
}

// SetThreads caps the pool's effective parallelism. n <= 0 restores the
// default (GOMAXPROCS). SetThreads(1) makes every kernel run strictly on the
// calling goroutine. Raising the cap spawns additional workers as needed.
// Changing the cap never changes results, only scheduling.
//
// SetThreads is safe to call at any time, including concurrently with
// running kernels and from multiple goroutines: the cap is an atomic that
// each Run invocation reads exactly once on entry, worker spawning is
// mutex-guarded, and workers are never torn down (lowering the cap merely
// parks the surplus). A kernel already in flight finishes with the
// parallelism it started with; the new cap applies from the next Run on.
// Because work decompositions are pure functions of problem size (see the
// package comment), a mid-run resize cannot change any numeric result.
func SetThreads(n int) {
	ensureInit()
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	threads.Store(int32(n))
	ensureWorkers(n - 1)
}

// Run invokes fn(0), fn(1), …, fn(nchunks-1) exactly once each, possibly
// concurrently on up to Threads() goroutines (the caller participates).
// When the calling goroutine is bound to a Limit (see With), the smaller of
// the global cap and the remaining per-job budget applies instead. It
// returns when every chunk has completed. fn must not assume any particular
// execution order or goroutine identity; chunks are claimed dynamically for
// load balance.
//
// Run resolves the binding with Current() whenever it has more than one
// chunk; callers that launch many kernels in a row should resolve it once
// and use RunIn.
func Run(nchunks int, fn func(chunk int)) {
	var lim *Limit
	if nchunks > 1 {
		lim = Current()
	}
	RunIn(lim, nchunks, fn)
}

// RunIn is Run under an already-resolved Limit: lim takes the place of the
// caller's Current() binding, and nil means unbound. A goroutine's binding
// cannot change while it is inside a call, so a caller that passes its own
// Current() — looked up once for a whole solve — gets exactly the budget
// Run would apply, without a lookup per launch.
func RunIn(lim *Limit, nchunks int, fn func(chunk int)) {
	if nchunks <= 0 {
		return
	}
	t := width(lim)
	if t <= 1 || nchunks == 1 {
		for c := 0; c < nchunks; c++ {
			fn(c)
		}
		return
	}
	var next atomic.Int64
	drain := func() {
		for {
			c := int(next.Add(1) - 1)
			if c >= nchunks {
				return
			}
			fn(c)
		}
	}
	helpers := t - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		// A bound job draws its helpers from the job budget before touching
		// the pool, so concurrent kernel launches within one job (the qp x/y
		// split) share budget−1 helper slots instead of each claiming a full
		// complement.
		if lim != nil && !lim.tryAcquireHelper() {
			break
		}
		wg.Add(1)
		var task func(uint64)
		if lim != nil {
			task = func(workerID uint64) {
				defer wg.Done()
				defer lim.releaseHelper()
				// Bind the worker for the task's duration so kernels nested
				// inside a chunk observe the same job budget.
				withID(workerID, lim, drain)
			}
		} else {
			task = func(uint64) {
				defer wg.Done()
				drain()
			}
		}
		select {
		case work <- task:
			// A parked worker picked it up.
		default:
			// No worker free (pool saturated or nested call): the caller
			// will drain those chunks itself.
			if lim != nil {
				lim.releaseHelper()
			}
			wg.Done()
		}
	}
	drain()
	wg.Wait()
}

// width returns how many goroutines one launch under lim may use: the
// global cap, lowered to lim's budget when that is smaller.
func width(lim *Limit) int {
	ensureInit()
	t := int(threads.Load())
	if lim != nil {
		if b := lim.Budget(); b > 0 && b < t {
			t = b
		}
	}
	return t
}

// Pair is a reusable two-chunk launch. Run does what RunIn(lim, 2, fn)
// does — fn(0) and fn(1) on the caller and at most one pool helper, drawn
// from lim's budget exactly as RunIn draws it — but fn is bound once by
// NewPair, so no launch after the first allocates. A Pair serves one launch
// at a time: nested or concurrent two-way forks each need their own.
type Pair struct {
	fn   func(chunk int)
	lim  *Limit
	next atomic.Int32
	wg   sync.WaitGroup
	// help and drainFn are p.helper and p.drain, bound once so a launch
	// hands the pool a func value without allocating one.
	help    func(workerID uint64)
	drainFn func()
}

// NewPair returns a Pair whose launches call fn.
func NewPair(fn func(chunk int)) *Pair {
	p := &Pair{fn: fn}
	p.help, p.drainFn = p.helper, p.drain
	return p
}

// Run calls fn(0) and fn(1), concurrently when the budget allows and a
// pool worker is free, and returns when both have completed. lim has
// RunIn's meaning.
func (p *Pair) Run(lim *Limit) {
	if width(lim) <= 1 {
		p.fn(0)
		p.fn(1)
		return
	}
	p.next.Store(0)
	if lim == nil || lim.tryAcquireHelper() {
		p.lim = lim
		p.wg.Add(1)
		select {
		case work <- p.help:
		default:
			if lim != nil {
				lim.releaseHelper()
			}
			p.wg.Done()
		}
	}
	p.drain()
	p.wg.Wait()
}

func (p *Pair) helper(workerID uint64) {
	defer p.wg.Done()
	if lim := p.lim; lim != nil {
		defer lim.releaseHelper()
		withID(workerID, lim, p.drainFn)
		return
	}
	p.drain()
}

func (p *Pair) drain() {
	for {
		c := int(p.next.Add(1) - 1)
		if c >= 2 {
			return
		}
		p.fn(c)
	}
}

// For splits the index range [0, n) into contiguous chunks of length grain
// (the last chunk may be shorter) and invokes fn(lo, hi) for each, possibly
// in parallel. The chunk boundaries are a pure function of n and grain —
// chunk c always covers [c·grain, min((c+1)·grain, n)) — so callers that
// store per-chunk partials indexed by lo/grain and reduce them in order get
// bitwise-deterministic results at any parallelism level.
//
// When n fits in a single chunk the callback runs inline on the caller with
// no scheduling overhead and no Limit lookup, so small problems (unit-test
// sized matrices) do not regress.
func For(n, grain int, fn func(lo, hi int)) {
	var lim *Limit
	if Chunks(n, grain) > 1 {
		lim = Current()
	}
	ForIn(lim, n, grain, fn)
}

// ForIn is For under an already-resolved Limit, with the same meaning of
// lim as RunIn.
func ForIn(lim *Limit, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	if n <= grain {
		fn(0, n)
		return
	}
	nchunks := (n + grain - 1) / grain
	RunIn(lim, nchunks, func(c int) {
		lo := c * grain
		hi := lo + grain
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// Chunks returns the number of chunks For(n, grain, …) will produce.
func Chunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain <= 0 {
		grain = 1
	}
	return (n + grain - 1) / grain
}
