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
//     IC(0) are inherently sequential recurrences and run serially, so
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
var PrecondKinds = []string{"jacobi", "ic0"}

// NewPreconditioner constructs a preconditioner by name: "jacobi"
// (diagonal scaling, the historical default) or "ic0" (zero-fill
// incomplete Cholesky).
func NewPreconditioner(kind string) (Preconditioner, error) {
	switch kind {
	case "jacobi":
		return &Jacobi{}, nil
	case "ic0":
		return &IC0{}, nil
	}
	return nil, fmt.Errorf("sparse: unknown preconditioner %q (have %v)", kind, PrecondKinds)
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
// IC(0)

// IC0 is the zero-fill incomplete Cholesky preconditioner: a lower factor L
// with exactly the strict-lower sparsity of A plus a positive diagonal d,
// M = L̂ L̂ᵀ with L̂ = L + diag(d). Breakdown (a non-positive pivot, which
// cannot happen for the M-matrices quadratic placement assembles but can
// for arbitrary SPD input) is repaired per-row by falling back to the
// guarded √diag pivot, which keeps L̂ nonsingular and M SPD.
//
// The factor is held twice: by rows (rowPtr/col/val) for the forward sweep
// and transposed (tPtr/tRow/tVal: column j's entries in decreasing source
// row) for the backward sweep, so both sweeps are gathers.
type IC0 struct {
	n      int
	rowPtr []int32
	col    []int32
	val    []float64
	d      []float64
	tPtr   []int32
	tRow   []int32
	tVal   []float64
	slot   []int32   // scratch: factor position of each column of the current row
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

// Setup computes the IC(0) factorization of a, whose rows must be sorted
// by column without duplicates (as Builder produces them).
//
// One left-looking pass over the rows: row i copies its strict-lower
// prefix from a while folding the diagonal the way CSR.Diag does, then
// computes l_ij = (a_ij − Σ_{c<j} l_ic·l_jc) / d_j for each of its columns
// j. The sum runs over row j's columns in increasing order and finds l_ic
// through slot, row i's column→position map, so it subtracts the same
// products in the same order as a two-pointer merge of rows i and j.
func (f *IC0) Setup(a *CSR) error {
	n := a.N
	f.n = n
	f.rowPtr = growI32(f.rowPtr, n+1)
	f.d = growF64(f.d, n)
	f.y = growF64(f.y, n)
	f.slot = growI32(f.slot, n)
	slot := f.slot
	for c := range slot {
		slot[c] = -1
	}
	aPtr, aCol, aVal := a.RowPtr, a.Col, a.Val
	rowPtr, d := f.rowPtr, f.d
	col, val := f.col[:0], f.val[:0]
	rowPtr[0] = 0
	for i := 0; i < n; i++ {
		cols := aCol[aPtr[i]:aPtr[i+1]]
		vals := aVal[aPtr[i]:aPtr[i+1]]
		vals = vals[:len(cols)]
		lower := len(cols)
		var aii float64
		for k, c := range cols {
			if int(c) == i {
				aii += vals[k]
			}
			if int(c) >= i && lower == len(cols) {
				lower = k
			}
		}
		ri0 := int32(len(col))
		col = append(col, cols[:lower]...)
		val = append(val, vals[:lower]...)
		ri1 := int32(len(col))
		rowPtr[i+1] = ri1
		for kk := ri0; kk < ri1; kk++ {
			slot[col[kk]] = kk
		}
		for kk := ri0; kk < ri1; kk++ {
			j := col[kk]
			s := val[kk]
			for pj := rowPtr[j]; pj < rowPtr[j+1]; pj++ {
				// A slot at or past ri0 belongs to row i; row j's columns
				// are below j, so it lies before kk.
				if p := slot[col[pj]]; p >= ri0 {
					s -= val[p] * val[pj]
				}
			}
			val[kk] = s / d[j]
		}
		s := aii
		for kk := ri0; kk < ri1; kk++ {
			s -= val[kk] * val[kk]
		}
		// pivot maps a NaN to a finite fallback, so catch it here; +Inf
		// passes through pivot and fails the finiteness check below.
		if math.IsNaN(s) || math.IsNaN(aii) {
			f.col, f.val = col, val
			return fmt.Errorf("sparse: IC(0) row %d: %w", i, ErrNotFinite)
		}
		d[i] = pivot(s, aii)
		if !isFinite(d[i]) {
			f.col, f.val = col, val
			return fmt.Errorf("sparse: IC(0) row %d: %w", i, ErrNotFinite)
		}
	}
	f.col, f.val = col, val
	f.transpose()
	return nil
}

// transpose fills tPtr/tRow/tVal from the row factor: column j's entries
// by decreasing source row, the order in which a column-oriented backward
// sweep applies them.
func (f *IC0) transpose() {
	n := f.n
	nnz := len(f.col)
	f.tPtr = growI32(f.tPtr, n+1)
	f.tRow = growI32(f.tRow, nnz)
	f.tVal = growF64(f.tVal, nnz)
	rowPtr, col, val := f.rowPtr, f.col, f.val
	tPtr, tRow, tVal := f.tPtr, f.tRow, f.tVal
	clear(tPtr)
	for _, c := range col {
		tPtr[c+1]++
	}
	for j := 0; j < n; j++ {
		tPtr[j+1] += tPtr[j]
	}
	// slot serves as the per-column fill cursor.
	cur := f.slot
	copy(cur, tPtr[:n])
	for i := n - 1; i >= 0; i-- {
		for kk := rowPtr[i]; kk < rowPtr[i+1]; kk++ {
			c := col[kk]
			p := cur[c]
			cur[c] = p + 1
			tRow[p] = int32(i)
			tVal[p] = val[kk]
		}
	}
}

// Apply solves L̂ y = r (forward), then L̂ᵀ z = y (backward), both as row
// gathers. The backward gather of z_j subtracts l_ij·z_i over the
// transposed factor's decreasing rows i, the same operands in the same
// order as the column sweep "for i from n−1 down: z_i /= d_i; z_c −= l_ic·z_i",
// so the result is bitwise that sweep's.
func (f *IC0) Apply(z, r []float64) {
	n := f.n
	rowPtr, col, val, d, y := f.rowPtr, f.col, f.val, f.d, f.y
	for i := 0; i < n; i++ {
		cols := col[rowPtr[i]:rowPtr[i+1]]
		vals := val[rowPtr[i]:rowPtr[i+1]]
		vals = vals[:len(cols)]
		s := r[i]
		for k, c := range cols {
			s -= vals[k] * y[c]
		}
		y[i] = s / d[i]
	}
	tPtr, tRow, tVal := f.tPtr, f.tRow, f.tVal
	for j := n - 1; j >= 0; j-- {
		rows := tRow[tPtr[j]:tPtr[j+1]]
		vals := tVal[tPtr[j]:tPtr[j+1]]
		vals = vals[:len(rows)]
		s := y[j]
		for k, i := range rows {
			s -= vals[k] * z[i]
		}
		z[j] = s / d[j]
	}
}

// Name identifies the implementation.
func (f *IC0) Name() string { return "ic0" }
