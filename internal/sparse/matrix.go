// Package sparse implements the sparse linear algebra needed by quadratic
// placement: a coordinate-format accumulator, compressed sparse row (CSR)
// matrices, and a preconditioned Conjugate Gradient solver — Jacobi or
// incomplete Cholesky IC(0) — for symmetric positive-definite systems.
//
// Quadratic placement matrices are extremely sparse (a handful of nonzeros
// per row from the Bound2Bound net model plus one diagonal anchor term), so
// CSR with a diagonal preconditioner is the standard choice; it is also what
// SimPL and ComPLx use.
//
// The kernels on the primal hot path — MulVec, Dot and the CG vector
// updates — run on the shared worker pool of package par. All of them
// honor the pool's determinism contract: work decomposition is a
// pure function of the problem size, and reductions merge fixed-size block
// partials in index order, so results are bitwise identical at any
// parallelism level.
package sparse

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"complx/internal/par"
)

// Tunable kernel decomposition constants. These are sizes, not thread
// counts: changing the pool's parallelism never changes the decomposition.
const (
	// dotBlock is the fixed reduction block length for Dot and norm2SqIn. Partial
	// sums are computed per block and added in block order.
	dotBlock = 8192
	// axpyGrain is the chunk length for element-wise vector kernels.
	axpyGrain = 16384
	// mulChunkNNZ is the target number of nonzeros per MulVec row chunk.
	mulChunkNNZ = 16384
	// maxMulChunks caps the precomputed row-split count.
	maxMulChunks = 64
	// diagRowGrain is the row-chunk length of Diag.
	diagRowGrain = 2048
)

// Builder accumulates matrix entries in coordinate form. Duplicate entries
// for the same (row, col) are summed, which matches how net models stamp
// element contributions.
type Builder struct {
	n    int
	ents []entry
}

// entry is one accumulated (row, col, value) triplet.
type entry struct {
	r, c int32
	v    float64
}

// NewBuilder returns a Builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Add accumulates v into entry (i, j); a zero v adds nothing.
//
// Indices out of range panic rather than return an error: an out-of-range
// index is a provable programmer bug (a broken variable-numbering
// invariant), never a data error. The library-facing robustness contract is
// enforced one level up by netlist.Validate.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: Add(%d, %d) out of range for n=%d", i, j, b.n))
	}
	if v == 0 {
		return
	}
	b.ents = append(b.ents, entry{int32(i), int32(j), v})
}

// AddSym accumulates the symmetric 2x2 stamp of a spring of weight w between
// variables i and j: +w on both diagonals, -w on both off-diagonals. This is
// the element contribution of the quadratic term w(x_i - x_j)^2. The four
// entries are emitted in the order (i,i), (j,j), (i,j), (j,i), and a zero
// weight emits none of them.
func (b *Builder) AddSym(i, j int, w float64) {
	b.Add(i, i, w)
	b.Add(j, j, w)
	b.Add(i, j, -w)
	b.Add(j, i, -w)
}

// AddDiag accumulates w on the diagonal entry (i, i); the element
// contribution of an anchor term w(x_i - a)^2.
func (b *Builder) AddDiag(i int, w float64) {
	b.Add(i, i, w)
}

// Build compresses the accumulated entries into a CSR matrix and empties
// the Builder, keeping its capacity. Entries are stably sorted by (row,
// col) and each duplicate run is summed left to right in emission order,
// so the result is a pure function of the entry stream.
func (b *Builder) Build() *CSR {
	ents := b.ents
	slices.SortStableFunc(ents, func(x, y entry) int {
		return cmp.Or(cmp.Compare(x.r, y.r), cmp.Compare(x.c, y.c))
	})
	m := &CSR{N: b.n, RowPtr: make([]int32, b.n+1)}
	for k := 0; k < len(ents); {
		e := ents[k]
		for k++; k < len(ents) && ents[k].r == e.r && ents[k].c == e.c; k++ {
			e.v += ents[k].v
		}
		m.Col = append(m.Col, e.c)
		m.Val = append(m.Val, e.v)
		m.RowPtr[e.r+1]++
	}
	for i := 0; i < b.n; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	m.Seal()
	b.ents = b.ents[:0]
	return m
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
	// splits caches the nnz-balanced row boundaries used by the parallel
	// MulVec. Built and sealed matrices get them precomputed; hand-built
	// matrices compute them on the fly (uncached, so CSR literals stay
	// safe for concurrent reads).
	splits []int32
}

// Seal precomputes the row split of the parallel MulVec. Call it after
// filling or refilling RowPtr, Col and Val in place.
func (m *CSR) Seal() { m.splits = m.computeSplits(m.splits[:0]) }

// computeSplits appends to dst the row boundaries of an nnz-balanced chunk
// partition: chunk c covers rows [dst[c], dst[c+1]) and holds roughly equal
// numbers of nonzeros. The partition depends only on the matrix itself.
func (m *CSR) computeSplits(dst []int32) []int32 {
	nnz := len(m.Val)
	k := nnz / mulChunkNNZ
	if k > maxMulChunks {
		k = maxMulChunks
	}
	if k > m.N {
		k = m.N
	}
	if k <= 1 {
		return append(dst, 0, int32(m.N))
	}
	dst = append(dst, 0)
	for c := 1; c < k; c++ {
		target := int32(int64(nnz) * int64(c) / int64(k))
		// First row whose segment starts at or after the target.
		row := sort.Search(m.N, func(r int) bool { return m.RowPtr[r] >= target })
		prev := dst[len(dst)-1]
		if int32(row) <= prev {
			continue // empty chunk collapsed
		}
		dst = append(dst, int32(row))
	}
	return append(dst, int32(m.N))
}

// mulRows computes dst[i] = Σ_k val·x for rows [lo, hi). The matrix slices
// are read into locals once and each row is ranged as a subslice, so the
// inner loop reloads no slice header.
func (m *CSR) mulRows(dst, x []float64, lo, hi int32) {
	rowPtr, col, val := m.RowPtr, m.Col, m.Val
	for i := lo; i < hi; i++ {
		cols := col[rowPtr[i]:rowPtr[i+1]]
		vals := val[rowPtr[i]:rowPtr[i+1]]
		vals = vals[:len(cols)]
		var s float64
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		dst[i] = s
	}
}

// MulVec computes dst = m * x. dst must have length N and may not alias x.
// Rows are processed in parallel over nnz-balanced chunks; since each output
// element is produced by exactly one chunk, the result is independent of the
// partition and bitwise identical to the serial product.
//
// A dimension mismatch panics (documented programmer bug): MulVec is a hot
// kernel whose operand sizes are fixed by the caller-owned workspaces, never
// by external input.
func (m *CSR) MulVec(dst, x []float64) {
	var lim *par.Limit
	if len(m.Val) >= 2*mulChunkNNZ { // smaller products always run serially
		lim = par.Current()
	}
	m.mulVecIn(lim, dst, x)
}

// mulVecIn is MulVec under the caller's already-resolved Limit (see
// par.RunIn).
func (m *CSR) mulVecIn(lim *par.Limit, dst, x []float64) {
	if len(dst) != m.N || len(x) != m.N {
		panic("sparse: MulVec dimension mismatch")
	}
	sp := m.splits
	if sp == nil {
		if len(m.Val) < 2*mulChunkNNZ || par.Threads() == 1 {
			m.mulRows(dst, x, 0, int32(m.N))
			return
		}
		sp = m.computeSplits(nil)
	}
	if len(sp) <= 2 || par.Threads() == 1 {
		m.mulRows(dst, x, 0, int32(m.N))
		return
	}
	par.RunIn(lim, len(sp)-1, func(c int) {
		m.mulRows(dst, x, sp[c], sp[c+1])
	})
}

// Diag extracts the diagonal into dst (length N). Missing diagonal entries
// yield zero. A dimension mismatch panics (documented programmer bug, same
// contract as MulVec).
func (m *CSR) Diag(dst []float64) {
	if len(dst) != m.N {
		panic("sparse: Diag dimension mismatch")
	}
	rowPtr, col, val := m.RowPtr, m.Col, m.Val
	par.For(m.N, diagRowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols := col[rowPtr[i]:rowPtr[i+1]]
			vals := val[rowPtr[i]:rowPtr[i+1]]
			vals = vals[:len(cols)]
			var d float64
			for k, c := range cols {
				if int(c) == i {
					d += vals[k]
				}
			}
			dst[i] = d
		}
	})
}

func dotRange(a, b []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Dot returns the inner product of two equal-length vectors. Long vectors
// are reduced in fixed blocks of dotBlock elements whose partial sums are
// added in block order, so the result is bitwise deterministic at any
// parallelism level (and identical to executing the same blocked reduction
// serially).
func Dot(a, b []float64) float64 {
	if len(a) <= dotBlock {
		return dotRange(a, b, 0, len(a))
	}
	return dotIn(par.Current(), a, b)
}

// dotIn is Dot under the caller's already-resolved Limit.
func dotIn(lim *par.Limit, a, b []float64) float64 {
	n := len(a)
	if n <= dotBlock {
		return dotRange(a, b, 0, n)
	}
	nb := par.Chunks(n, dotBlock)
	partial := make([]float64, nb)
	par.ForIn(lim, n, dotBlock, func(lo, hi int) {
		partial[lo/dotBlock] = dotRange(a, b, lo, hi)
	})
	var s float64
	for _, v := range partial {
		s += v
	}
	return s
}

// axpyIn computes dst[i] += alpha * x[i] under the caller's
// already-resolved Limit.
func axpyIn(lim *par.Limit, dst []float64, alpha float64, x []float64) {
	par.ForIn(lim, len(dst), axpyGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] += alpha * x[i]
		}
	})
}

// norm2SqIn returns the squared Euclidean norm of v under the caller's
// already-resolved Limit.
func norm2SqIn(lim *par.Limit, v []float64) float64 { return dotIn(lim, v, v) }
