package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Limit is a per-job parallelism budget. While a goroutine is bound to a
// Limit (see With), every Run/For invocation it makes — and every helper
// task those invocations hand to the shared pool — counts against the
// Limit's budget instead of monopolizing the process-global cap. The global
// SetThreads cap remains a hard ceiling: a Limit can only lower the
// parallelism a kernel launch would otherwise use, never raise it past the
// pool size.
//
// Budget semantics: a Limit with budget b allows at most b−1 in-flight
// helper goroutines across all kernel launches of the bound job at once
// (the launching goroutines always participate themselves, so a
// single-threaded job section uses exactly b goroutines; the transient x/y
// dimension split in qp adds one job-owned goroutine on top). Budget 1
// therefore pins every kernel of the job to its calling goroutine.
//
// Changing the budget (Set) at any time is safe and — like SetThreads —
// cannot change numeric results, because all work decompositions are pure
// functions of problem size (see the package comment).
type Limit struct {
	budget  atomic.Int32
	helpers atomic.Int32
}

// NewLimit returns a Limit with the given budget. n <= 0 means "no per-job
// cap" (the global SetThreads ceiling alone applies); n == 1 forces strictly
// serial kernels for the bound job.
func NewLimit(n int) *Limit {
	l := &Limit{}
	l.Set(n)
	return l
}

// Set adjusts the budget; n <= 0 removes the per-job cap (global ceiling
// only). Kernel launches already in flight finish with the parallelism they
// started with; the new budget applies from the next Run on.
func (l *Limit) Set(n int) {
	if n < 0 {
		n = 0
	}
	l.budget.Store(int32(n))
}

// Budget returns the configured budget (0 = uncapped, global ceiling only).
func (l *Limit) Budget() int { return int(l.budget.Load()) }

// tryAcquireHelper claims one helper slot against the budget; callers must
// pair a true return with releaseHelper. A zero budget (uncapped) always
// admits. The in-flight count is maintained unconditionally so a mid-flight
// Set can never unbalance the acquire/release pairing.
func (l *Limit) tryAcquireHelper() bool {
	for {
		h := l.helpers.Load()
		if b := l.budget.Load(); b > 0 && h >= b-1 {
			return false
		}
		if l.helpers.CompareAndSwap(h, h+1) {
			return true
		}
	}
}

func (l *Limit) releaseHelper() { l.helpers.Add(-1) }

// Goroutine→Limit bindings. Go has no goroutine-local storage, so bindings
// live in a map keyed by goroutine id (parsed from the runtime.Stack
// header). Run and For consult the map once per multi-chunk launch — never
// per chunk — and only when at least one binding exists, so unbounded
// callers (the CLI, every existing test) pay a single atomic load. Hot
// callers that launch many kernels in a row resolve Current() once and use
// RunIn/ForIn.
var (
	bindCount atomic.Int32
	bindMu    sync.Mutex
	bindings  = map[uint64]*Limit{}
)

// goid returns the current goroutine's id. The runtime.Stack header is
// formatted "goroutine N [status]:". Although only the header is kept,
// runtime.Stack walks every frame of the stack to produce it, so the cost
// grows with stack depth: a few microseconds on a shallow stack but tens of
// microseconds at the depth of the placement engine's solver loop, as much
// as a small kernel launch. Bindings are therefore resolved per launch,
// never per chunk, and hot callers resolve the Limit once per solve and pass
// it to RunIn/ForIn.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	id := uint64(0)
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// With runs fn with the calling goroutine bound to l; nested Run/For calls
// made by fn observe l's budget. A nil l runs fn unbound (pass-through), so
// callers can propagate Current() across goroutine spawns without guards.
// Bindings nest: the innermost With wins for its duration, and the previous
// binding (if any) is restored when fn returns.
func With(l *Limit, fn func()) {
	if l == nil {
		fn()
		return
	}
	withID(goid(), l, fn)
}

// withID is With for the goroutine whose id the caller already knows; pool
// workers look theirs up once at spawn, so binding one to a job for a
// helper task costs no stack walk.
func withID(id uint64, l *Limit, fn func()) {
	bindMu.Lock()
	prev, hadPrev := bindings[id]
	bindings[id] = l
	if !hadPrev {
		bindCount.Add(1)
	}
	bindMu.Unlock()
	defer func() {
		bindMu.Lock()
		if hadPrev {
			bindings[id] = prev
		} else {
			delete(bindings, id)
			bindCount.Add(-1)
		}
		bindMu.Unlock()
	}()
	fn()
}

// Current returns the Limit bound to the calling goroutine, or nil when the
// goroutine is unbound. Code that spawns goroutines inside a kernel or a
// placement flow should capture Current() before the spawn and re-bind
// inside with With, so the budget follows the job across its own goroutines
// (bindings do not propagate automatically).
func Current() *Limit {
	if bindCount.Load() == 0 {
		return nil
	}
	id := goid()
	bindMu.Lock()
	l := bindings[id]
	bindMu.Unlock()
	return l
}
