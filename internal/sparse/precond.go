package sparse

import (
	"fmt"
	"math"

	"complx/internal/par"
)

// Preconditioner approximates the action of A⁻¹ for an SPD CSR matrix
// inside the PCG solve. Setup (re)builds all internal state for a matrix;
// Apply computes z ≈ A⁻¹ r for vectors of the last Setup's dimension.
//
// Every implementation shares three contracts with the rest of the sparse
// kernels:
//
//   - Determinism: Apply's floating-point result is a pure function of the
//     matrix and r — never of the worker-pool size. Elementwise stages run
//     on the internal/par pool with fixed grains; the triangular sweeps of
//     SSOR/IC(0) are inherently sequential recurrences and run serially, so
//     they are trivially 0-ULP thread-equivalent.
//   - Zero-diagonal guard: rows with a non-positive diagonal (isolated
//     variables) pass through unpreconditioned, exactly like the historical
//     Jacobi floor of 1 (see Jacobi.Setup).
//   - Concurrency: one Preconditioner instance serves one solve at a time.
//     Concurrent solves (the placement engine solves x and y concurrently)
//     need one instance per system.
type Preconditioner interface {
	Setup(a *CSR) error
	Apply(z, r []float64)
	Name() string
}

// PrecondKinds lists the concrete preconditioner names accepted by
// NewPreconditioner, in documentation order.
var PrecondKinds = []string{"jacobi", "ssor", "ic0"}

// NewPreconditioner constructs a preconditioner by name: "jacobi"
// (diagonal scaling, the historical default), "ssor" (symmetric
// Gauss-Seidel forward/backward sweeps) or "ic0" (zero-fill incomplete
// Cholesky).
func NewPreconditioner(kind string) (Preconditioner, error) {
	switch kind {
	case "jacobi":
		return &Jacobi{}, nil
	case "ssor":
		return &SSOR{}, nil
	case "ic0":
		return &IC0{}, nil
	}
	return nil, fmt.Errorf("sparse: unknown preconditioner %q (have %v)", kind, PrecondKinds)
}

// guardDiag floors non-positive diagonals with 1 so isolated variables pass
// through unpreconditioned. This is the single definition of the
// zero-diagonal guard all preconditioners share.
func guardDiag(d float64) float64 {
	if d > 0 {
		return d
	}
	return 1
}

// ---------------------------------------------------------------------------
// Jacobi

// Jacobi is diagonal scaling: M = diag(A). It is the extracted form of the
// historical inline Jacobi-PCG preconditioner and is arithmetic-identical
// to it (same guard, same parallel grain), so a solve through Jacobi is
// bitwise equal to the pre-interface solver.
type Jacobi struct {
	invD []float64
}

// Setup extracts and inverts the guarded diagonal.
func (j *Jacobi) Setup(a *CSR) error {
	n := a.N
	j.invD = growF64(j.invD, n)
	invD := j.invD
	a.Diag(invD)
	par.For(n, axpyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if d := invD[i]; d > 0 {
				invD[i] = 1 / d
			} else {
				invD[i] = 1
			}
		}
	})
	return nil
}

// Apply computes z = diag(A)⁻¹ r.
func (j *Jacobi) Apply(z, r []float64) {
	invD := j.invD
	par.For(len(r), axpyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			z[i] = invD[i] * r[i]
		}
	})
}

// Name identifies the implementation.
func (j *Jacobi) Name() string { return "jacobi" }

// ---------------------------------------------------------------------------
// SSOR

// SSOR is the symmetric Gauss-Seidel preconditioner (SSOR with ω = 1):
// M = (D + L) D⁻¹ (D + U) over the symmetric CSR, applied as one forward
// and one backward triangular sweep per Apply (Eisenstat-style splitting of
// the stored matrix — no separate factor is formed; the sweeps read the
// live matrix rows). The sweeps are sequential recurrences, so Apply is
// deterministic at any thread count by construction.
type SSOR struct {
	a    *CSR
	diag []float64 // guarded diagonal
	u    []float64 // forward-sweep intermediate
}

// Setup stores the matrix and extracts its guarded diagonal.
func (s *SSOR) Setup(a *CSR) error {
	n := a.N
	s.a = a
	s.diag = growF64(s.diag, n)
	s.u = growF64(s.u, n)
	a.Diag(s.diag)
	d := s.diag
	par.For(n, axpyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] = guardDiag(d[i])
		}
	})
	return nil
}

// Apply solves (D+L) u = r, then (D+U) z = D u.
func (s *SSOR) Apply(z, r []float64) {
	a, d, u := s.a, s.diag, s.u
	n := a.N
	for i := 0; i < n; i++ {
		sum := r[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := int(a.Col[k]); j < i {
				sum -= a.Val[k] * u[j]
			}
		}
		u[i] = sum / d[i]
	}
	for i := n - 1; i >= 0; i-- {
		sum := d[i] * u[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := int(a.Col[k]); j > i {
				sum -= a.Val[k] * z[j]
			}
		}
		z[i] = sum / d[i]
	}
}

// Name identifies the implementation.
func (s *SSOR) Name() string { return "ssor" }

// ---------------------------------------------------------------------------
// IC(0)

// IC0 is the zero-fill incomplete Cholesky preconditioner: a lower factor L
// with exactly the strict-lower sparsity of A plus a positive diagonal d,
// M = L̂ L̂ᵀ with L̂ = L + diag(d). Breakdown (a non-positive pivot, which
// cannot happen for the M-matrices quadratic placement assembles but can
// for arbitrary SPD input) is repaired per-row by falling back to the
// guarded √diag pivot, which keeps L̂ nonsingular and M SPD.
type IC0 struct {
	n      int
	rowPtr []int32
	col    []int32
	val    []float64
	d      []float64
	aDiag  []float64 // scratch: raw diagonal of the last matrix seen
	y      []float64 // forward-sweep intermediate
}

// pivot applies the IC(0) pivot rule: the exact pivot when it is usably
// positive, else the guarded diagonal fallback.
func pivot(s, aii float64) float64 {
	// Accept the exact pivot only while it retains a meaningful fraction of
	// the diagonal: a collapsing pivot (s → 0⁺) would inject a huge 1/d
	// into the factor and destabilize Apply.
	if s > 1e-8*aii && s > 0 {
		return math.Sqrt(s)
	}
	if aii > 0 {
		return math.Sqrt(aii)
	}
	return 1
}

// Setup computes the IC(0) factorization of a.
func (f *IC0) Setup(a *CSR) error {
	n := a.N
	f.n = n
	f.rowPtr = growI32(f.rowPtr, n+1)
	f.d = growF64(f.d, n)
	f.aDiag = growF64(f.aDiag, n)
	f.y = growF64(f.y, n)
	a.Diag(f.aDiag)

	// Strict-lower pattern (CSR rows are sorted by column, so the lower
	// part of each row is a prefix).
	nnz := 0
	f.rowPtr[0] = 0
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) < i {
				nnz++
			} else {
				break
			}
		}
		f.rowPtr[i+1] = int32(nnz)
	}
	f.col = growI32(f.col, nnz)
	f.val = growF64(f.val, nnz)
	idx := 0
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) >= i {
				break
			}
			f.col[idx] = a.Col[k]
			f.val[idx] = a.Val[k]
			idx++
		}
	}

	// Row-wise left-looking factorization on the fixed pattern. Rows are
	// short (a handful of B2B couplings), so the sparse dot products via
	// two-pointer merges stay linear in nnz in practice.
	for i := 0; i < n; i++ {
		ri0, ri1 := f.rowPtr[i], f.rowPtr[i+1]
		for kk := ri0; kk < ri1; kk++ {
			j := int(f.col[kk])
			s := f.val[kk]
			// s -= Σ_{c < j} l_ic · l_jc over the shared pattern.
			pi, pj := ri0, f.rowPtr[j]
			rj1 := f.rowPtr[j+1]
			for pi < kk && pj < rj1 {
				ci, cj := f.col[pi], f.col[pj]
				switch {
				case ci == cj:
					s -= f.val[pi] * f.val[pj]
					pi++
					pj++
				case ci < cj:
					pi++
				default:
					pj++
				}
			}
			f.val[kk] = s / f.d[j]
		}
		s := f.aDiag[i]
		for kk := ri0; kk < ri1; kk++ {
			s -= f.val[kk] * f.val[kk]
		}
		f.d[i] = pivot(s, f.aDiag[i])
		if !isFinite(f.d[i]) {
			return fmt.Errorf("sparse: IC(0) row %d: %w", i, ErrNotFinite)
		}
	}
	return nil
}

// Apply solves L̂ y = r (forward) then L̂ᵀ z = y (backward column sweep).
func (f *IC0) Apply(z, r []float64) {
	n := f.n
	y := f.y
	for i := 0; i < n; i++ {
		s := r[i]
		for kk := f.rowPtr[i]; kk < f.rowPtr[i+1]; kk++ {
			s -= f.val[kk] * y[f.col[kk]]
		}
		y[i] = s / f.d[i]
	}
	copy(z[:n], y[:n])
	for i := n - 1; i >= 0; i-- {
		zi := z[i] / f.d[i]
		z[i] = zi
		for kk := f.rowPtr[i]; kk < f.rowPtr[i+1]; kk++ {
			z[f.col[kk]] -= f.val[kk] * zi
		}
	}
}

// Name identifies the implementation.
func (f *IC0) Name() string { return "ic0" }
