package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"

	"complx/internal/faultinject"
	"complx/internal/par"
)

// CGOptions controls the Conjugate Gradient solver.
type CGOptions struct {
	// Tol is the relative residual tolerance ‖r‖/‖b‖ at which the solve
	// stops. Defaults to 1e-6 when zero.
	Tol float64
	// MaxIter bounds the iteration count. Defaults to 4*N when zero.
	MaxIter int
	// Progress, when non-nil, is invoked once per CG iteration with the
	// iteration number and the current relative residual ‖r‖/‖b‖. It is
	// observational only: the solver ignores anything it does, and the
	// callback must be safe for concurrent use when the same options are
	// shared between concurrent solves (the placement engine solves x and y
	// concurrently).
	Progress func(iter int, relResidual float64)
	// Precond selects the preconditioner. It must already be Setup for the
	// matrix being solved; the solver only calls Apply. Nil selects the
	// built-in per-solve Jacobi (the historical default, bitwise identical
	// to the pre-interface solver). Unlike Progress, a Preconditioner holds
	// per-solve state: concurrent solves must not share one instance.
	Precond Preconditioner
}

// CGResult reports how a solve went.
type CGResult struct {
	Iterations int
	Residual   float64 // final relative residual ‖r‖/‖b‖
	Converged  bool
}

// ErrNotSPD is returned when CG detects the matrix is not positive definite
// (a non-positive curvature direction).
var ErrNotSPD = errors.New("sparse: matrix is not positive definite")

// ErrNotFinite is returned when CG encounters a NaN or Inf in the
// right-hand side, the matrix, or an intermediate scalar. Without this
// check a single non-finite entry makes every convergence comparison
// false (NaN compares false with everything), so the solve would silently
// burn MaxIter iterations and return garbage.
var ErrNotFinite = errors.New("sparse: non-finite value (NaN or Inf) in linear system")

// CGWorkspace holds the work vectors of a PCG solve plus the built-in
// Jacobi preconditioner used when CGOptions.Precond is nil. Reusing a
// workspace across the repeated per-iteration solves of the placement outer
// loop eliminates the O(N) allocations per call that SolvePCG otherwise
// pays.
type CGWorkspace struct {
	r, z, p, ap []float64
	jac         Jacobi
}

// ensure sizes the workspace for an n-variable solve, reusing capacity.
func (w *CGWorkspace) ensure(n int) {
	w.r = growF64(w.r, n)
	w.z = growF64(w.z, n)
	w.p = growF64(w.p, n)
	w.ap = growF64(w.ap, n)
}

// SolvePCG solves A x = b for symmetric positive-definite A using
// Jacobi-preconditioned Conjugate Gradient. x holds the initial guess on
// entry and the solution on return. It allocates a fresh workspace; hot
// callers should hold a CGWorkspace and use SolvePCGWS.
func SolvePCG(a *CSR, x, b []float64, opt CGOptions) (CGResult, error) {
	var w CGWorkspace
	return SolvePCGWS(a, x, b, opt, &w)
}

// SolvePCGWS is SolvePCG with a caller-owned workspace. The workspace is
// resized as needed and may be reused across solves of any size. When the
// initial guess is identically zero the initial residual is taken directly
// from b, skipping one matrix-vector product (warm-start fast path for
// cold solves).
func SolvePCGWS(a *CSR, x, b []float64, opt CGOptions, w *CGWorkspace) (CGResult, error) {
	return SolvePCGCtx(context.Background(), a, x, b, opt, w)
}

// SolvePCGCtx is SolvePCGWS with cooperative cancellation: ctx is polled
// once per CG iteration (each iteration is at least one O(nnz) product, so
// the check never dominates), and a done context stops the solve with
// ctx.Err() wrapped by the iterate reached so far. x holds the best iterate
// at the moment of cancellation, so callers can roll forward from it.
func SolvePCGCtx(ctx context.Context, a *CSR, x, b []float64, opt CGOptions, w *CGWorkspace) (CGResult, error) {
	n := a.N
	if len(x) != n || len(b) != n {
		return CGResult{}, fmt.Errorf("sparse: SolvePCG dimension mismatch: len(x)=%d len(b)=%d n=%d",
			len(x), len(b), n)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-6
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 4 * n
		if opt.MaxIter < 100 {
			opt.MaxIter = 100
		}
	}
	w.ensure(n)
	r, z, p, ap := w.r, w.z, w.p, w.ap
	// Resolve the caller's thread budget once for the whole solve: a
	// lookup costs tens of microseconds at the engine's stack depth, and
	// each iteration launches several kernels.
	lim := par.Current()

	// Preconditioner: the caller's (already Setup for a), or the built-in
	// Jacobi M = diag(A) rebuilt per solve — arithmetic-identical to the
	// historical inline path, including the zero-diagonal guard that lets
	// isolated variables pass through unpreconditioned.
	precond := opt.Precond
	if precond == nil {
		w.jac.Setup(a) // never fails
		precond = &w.jac
	}

	// Initial residual r = b - A x; the A x product is skipped when the
	// guess is zero (r = b exactly).
	if isZero(x) {
		copy(r, b)
	} else {
		a.mulVecIn(lim, ap, x)
		par.ForIn(lim, n, axpyGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				r[i] = b[i] - ap[i]
			}
		})
	}
	bNorm := math.Sqrt(norm2SqIn(lim, b))
	if !isFinite(bNorm) {
		return CGResult{}, ErrNotFinite
	}
	if bNorm == 0 {
		// Solution of A x = 0 is x = 0 for SPD A.
		for i := range x {
			x[i] = 0
		}
		return CGResult{Converged: true}, nil
	}

	precond.Apply(z, r)
	copy(p, z)
	rz := dotIn(lim, r, z)

	res := CGResult{}
	for k := 0; k < opt.MaxIter; k++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("sparse: CG cancelled after %d iterations: %w", res.Iterations, err)
		}
		rNorm := math.Sqrt(norm2SqIn(lim, r))
		if fi := faultinject.Active(); fi != nil && fi.Fire(faultinject.CGResidual, "") != nil {
			// Test-only fault injection: poison the recurrence exactly as a
			// real numeric breakdown would, so the NaN propagates through the
			// solution update and trips the usual ErrNotFinite guards.
			rz = math.NaN()
		}
		res.Residual = rNorm / bNorm
		if opt.Progress != nil {
			opt.Progress(k, res.Residual)
		}
		if res.Residual <= opt.Tol {
			res.Converged = true
			return res, nil
		}
		a.mulVecIn(lim, ap, p)
		pap := dotIn(lim, p, ap)
		// Order matters: NaN compares false with everything, so a plain
		// "pap <= 0" guard lets a NaN system iterate to MaxIter. Detect
		// non-finite curvature (NaN/Inf in A, b or the initial guess)
		// explicitly before the SPD check.
		if !isFinite(pap) {
			return res, ErrNotFinite
		}
		if pap <= 0 {
			return res, ErrNotSPD
		}
		alpha := rz / pap
		axpyIn(lim, x, alpha, p)
		axpyIn(lim, r, -alpha, ap)
		precond.Apply(z, r)
		rzNew := dotIn(lim, r, z)
		if !isFinite(rzNew) {
			return res, ErrNotFinite
		}
		beta := rzNew / rz
		rz = rzNew
		par.ForIn(lim, n, axpyGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				p[i] = z[i] + beta*p[i]
			}
		})
		res.Iterations = k + 1
	}
	res.Residual = math.Sqrt(norm2SqIn(lim, r)) / bNorm
	res.Converged = res.Residual <= opt.Tol
	return res, nil
}

// isFinite reports whether v is neither NaN nor infinite.
func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// isZero reports whether every element of v is exactly zero.
func isZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
