// Package sparse implements the sparse linear algebra needed by quadratic
// placement: a coordinate-format accumulator, compressed sparse row (CSR)
// matrices, and a Jacobi-preconditioned Conjugate Gradient solver for
// symmetric positive-definite systems.
//
// Quadratic placement matrices are extremely sparse (a handful of nonzeros
// per row from the Bound2Bound net model plus one diagonal anchor term), so
// CSR with a diagonal preconditioner is the standard choice; it is also what
// SimPL and ComPLx use.
//
// The kernels on the primal hot path — MulVec, Dot, the CG vector updates
// and CSR construction — run on the shared worker pool of package par. All
// of them honor the pool's determinism contract: work decomposition is a
// pure function of the problem size, and reductions merge fixed-size block
// partials in index order, so results are bitwise identical at any
// parallelism level.
package sparse

import (
	"fmt"
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
	// buildRowGrain is the row-chunk length for the parallel phases of CSR
	// construction (per-row sort/merge and segment copy).
	buildRowGrain = 2048
)

// Builder accumulates matrix entries in coordinate form. Duplicate entries
// for the same (row, col) are summed, which matches how net models stamp
// element contributions.
type Builder struct {
	n    int
	ents []entry
}

// entry is one accumulated record: either the (row, col, value) triplet of
// Add, or, when r is negative, the compact spring record of AddSym with
// weight v between variables ^r and c, which BuildMergedInto expands into
// its four triplets.
type entry struct {
	r, c int32
	v    float64
}

// NewBuilder returns a Builder for an n×n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Reset drops all accumulated entries but keeps the allocated capacity, so
// a Builder can be reused across assembly iterations without reallocating
// its triplet array.
func (b *Builder) Reset() { b.ents = b.ents[:0] }

// Add accumulates v into entry (i, j).
//
// Indices out of range panic rather than return an error: Add sits on the
// innermost assembly loop and its indices are derived from a validated
// netlist, so an out-of-range index is a provable programmer bug (a broken
// variable-numbering invariant), never a data error. The library-facing
// robustness contract is enforced one level up by netlist.Validate.
func (b *Builder) Add(i, j int, v float64) {
	b.check(i, j)
	if v == 0 {
		return
	}
	b.ents = append(b.ents, entry{int32(i), int32(j), v})
}

func (b *Builder) check(i, j int) {
	if i < 0 || i >= b.n || j < 0 || j >= b.n {
		panic(fmt.Sprintf("sparse: Add(%d, %d) out of range for n=%d", i, j, b.n))
	}
}

// AddSym accumulates the symmetric 2x2 stamp of a spring of weight w between
// variables i and j: +w on both diagonals, -w on both off-diagonals. This is
// the element contribution of the quadratic term w(x_i - x_j)^2. The four
// entries are emitted in the order (i,i), (j,j), (i,j), (j,i), and a zero
// weight emits none of them. They are stored as one compact record (row
// ^i) that BuildMergedInto expands in that order, so a spring costs one
// 16-byte record instead of four triplets.
func (b *Builder) AddSym(i, j int, w float64) {
	b.check(i, j)
	if w == 0 {
		return
	}
	b.ents = append(b.ents, entry{^int32(i), int32(j), w})
}

// AddDiag accumulates w on the diagonal entry (i, i); the element
// contribution of an anchor term w(x_i - a)^2.
func (b *Builder) AddDiag(i int, w float64) {
	b.Add(i, i, w)
}

// Build compresses the accumulated entries into a CSR matrix. The Builder
// may be reused afterwards (it is reset).
func (b *Builder) Build() *CSR {
	m := BuildMergedInto(nil, nil, b.n, b)
	b.Reset()
	return m
}

// BuildScratch holds the reusable intermediate buffers of CSR construction.
// Reusing one BuildScratch across iterations eliminates the per-Assemble
// allocation of the scatter and counting arrays.
type BuildScratch struct {
	start   []int32   // per-row raw off-diagonal segment starts (n+1)
	cur     []int32   // per-row scatter cursors (n)
	rawCol  []int32   // scattered, unmerged off-diagonal columns
	rawVal  []float64 // scattered, unmerged off-diagonal values
	rowNNZ  []int32   // merged off-diagonal entry count per row (n)
	diag    []float64 // per-row diagonal sums (n)
	hasDiag []bool    // whether row r received any diagonal entry (n)
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

// BuildMergedInto builds the CSR matrix for the concatenation of the
// shards' triplet streams, taken in shard order, where each AddSym record
// stands for its four triplets in AddSym's order. It replaces the sort-based
// Build with a deterministic two-phase counting build:
//
//  1. count off-diagonal triplets per row and scatter them (sequentially,
//     preserving the within-row triplet order) into contiguous row
//     segments, while summing each row's diagonal triplets, in the same
//     sequential pass, into a dense per-row accumulator;
//  2. per row — in parallel over fixed row chunks — stably sort the
//     off-diagonal segment by column and sum duplicates in first-appearance
//     order, then compact the merged segments into the final arrays,
//     inserting the diagonal sum at its column.
//
// Both the diagonal sum and every off-diagonal duplicate sum are left folds
// in triplet emission order (never an order that depends on the worker
// count), so the numeric result is bitwise deterministic and equal to a
// stable sort of all triplets followed by an in-order fold. Keeping the
// diagonal — about half of a net model's triplets — out of the segments
// halves the sorting work.
//
// m and ws may be nil (fresh allocations) or carry buffers from a previous
// call, which are reused when large enough — the incremental-assembly path
// reuses both across placement iterations. The shards are not reset.
//
// Shards whose dimension disagrees with n panic (documented programmer
// bug): shard dimensions are fixed when the assembler is constructed and
// never depend on external input.
func BuildMergedInto(m *CSR, ws *BuildScratch, n int, shards ...*Builder) *CSR {
	if m == nil {
		m = &CSR{}
	}
	if ws == nil {
		ws = &BuildScratch{}
	}
	for _, b := range shards {
		if b.n != n {
			panic(fmt.Sprintf("sparse: BuildMergedInto shard dimension %d != %d", b.n, n))
		}
	}
	var lim *par.Limit
	if par.Chunks(n, buildRowGrain) > 1 {
		lim = par.Current()
	}
	m.N = n
	m.RowPtr = growI32(m.RowPtr, n+1)

	// Phase 1a: raw per-row off-diagonal counts over all shards in order.
	start := growI32(ws.start, n+1)
	clear(start)
	for _, b := range shards {
		for _, e := range b.ents {
			if e.r < 0 {
				if r := ^e.r; r != e.c {
					start[r+1]++
					start[e.c+1]++
				}
			} else if e.r != e.c {
				start[e.r+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}

	// Phase 1b: scatter off-diagonal triplets into row segments and sum the
	// diagonal. Sequential on purpose: it preserves the emission order of
	// duplicates within each row, which fixes the floating-point summation
	// order. A spring record expands to its four triplets in AddSym's
	// documented order.
	cur := growI32(ws.cur, n)
	copy(cur, start[:n])
	total := int(start[n])
	rawCol := growI32(ws.rawCol, total)
	rawVal := growF64(ws.rawVal, total)
	diag := growF64(ws.diag, n)
	if cap(ws.hasDiag) < n {
		ws.hasDiag = make([]bool, n)
	}
	hasDiag := ws.hasDiag[:n]
	clear(hasDiag)
	for _, b := range shards {
		for _, e := range b.ents {
			if e.r < 0 {
				r := ^e.r
				foldDiag(diag, hasDiag, r, e.v)
				foldDiag(diag, hasDiag, e.c, e.v)
				if r == e.c {
					foldDiag(diag, hasDiag, r, -e.v)
					foldDiag(diag, hasDiag, r, -e.v)
					continue
				}
				p, q := cur[r], cur[e.c]
				cur[r], cur[e.c] = p+1, q+1
				rawCol[p], rawVal[p] = e.c, -e.v
				rawCol[q], rawVal[q] = r, -e.v
				continue
			}
			if e.r == e.c {
				foldDiag(diag, hasDiag, e.r, e.v)
				continue
			}
			p := cur[e.r]
			cur[e.r] = p + 1
			rawCol[p] = e.c
			rawVal[p] = e.v
		}
	}

	// Phase 2a: per-row stable sort by column + in-place duplicate merge of
	// the off-diagonal segments.
	rowNNZ := growI32(ws.rowNNZ, n)
	par.ForIn(lim, n, buildRowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			s, e := int(start[r]), int(start[r+1])
			if s == e {
				rowNNZ[r] = 0
				continue
			}
			insertionSortByCol(rawCol[s:e], rawVal[s:e])
			// Merge duplicates in place at the segment head.
			w := s
			for k := s + 1; k < e; k++ {
				if rawCol[k] == rawCol[w] {
					rawVal[w] += rawVal[k]
				} else {
					w++
					rawCol[w] = rawCol[k]
					rawVal[w] = rawVal[k]
				}
			}
			rowNNZ[r] = int32(w - s + 1)
		}
	})

	// Phase 2b: prefix-sum the merged counts, plus the diagonal where
	// present, into the final row pointers.
	m.RowPtr[0] = 0
	for r := 0; r < n; r++ {
		cnt := rowNNZ[r]
		if hasDiag[r] {
			cnt++
		}
		m.RowPtr[r+1] = m.RowPtr[r] + cnt
	}
	nnz := int(m.RowPtr[n])
	m.Col = growI32(m.Col, nnz)
	m.Val = growF64(m.Val, nnz)

	// Phase 2c: compact merged segments into the final arrays, with the
	// diagonal between the columns below and above it.
	par.ForIn(lim, n, buildRowGrain, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			src := int(start[r])
			cnt := int(rowNNZ[r])
			cols, vals := rawCol[src:src+cnt], rawVal[src:src+cnt]
			dst := int(m.RowPtr[r])
			k := 0
			if hasDiag[r] {
				for k < cnt && int(cols[k]) < r {
					k++
				}
				copy(m.Col[dst:], cols[:k])
				copy(m.Val[dst:], vals[:k])
				m.Col[dst+k] = int32(r)
				m.Val[dst+k] = diag[r]
				dst++
			}
			copy(m.Col[dst+k:], cols[k:])
			copy(m.Val[dst+k:], vals[k:])
		}
	})

	ws.start, ws.cur, ws.rawCol, ws.rawVal, ws.rowNNZ = start, cur, rawCol, rawVal, rowNNZ
	ws.diag = diag
	m.splits = m.computeSplits(m.splits[:0])
	return m
}

// foldDiag adds v to row r's diagonal sum, or starts the sum at v when row
// r has none yet.
func foldDiag(diag []float64, hasDiag []bool, r int32, v float64) {
	if hasDiag[r] {
		diag[r] += v
	} else {
		diag[r] = v
		hasDiag[r] = true
	}
}

// insertionSortByCol stably sorts the (col, val) pairs by column. Stability
// keeps duplicate entries in emission order so their summation order is
// deterministic. Row segments are small (a handful of stamps per variable),
// where insertion sort beats the generic sort; very long segments fall back
// to a stable pre-pass.
func insertionSortByCol(cols []int32, vals []float64) {
	if len(cols) > 64 {
		// Rare hub rows: stable sort via sort.SliceStable on an index view
		// would allocate; a binary-insertion variant keeps it allocation-free
		// and stable while avoiding the quadratic scan's worst constant.
		binaryInsertionSortByCol(cols, vals)
		return
	}
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		j := i - 1
		for j >= 0 && cols[j] > c {
			cols[j+1], vals[j+1] = cols[j], vals[j]
			j--
		}
		cols[j+1], vals[j+1] = c, v
	}
}

// binaryInsertionSortByCol is the stable fallback for long row segments:
// binary search for the insertion point, then a block move.
func binaryInsertionSortByCol(cols []int32, vals []float64) {
	for i := 1; i < len(cols); i++ {
		c, v := cols[i], vals[i]
		// First position whose col is > c (keeps equal cols stable).
		p := sort.Search(i, func(k int) bool { return cols[k] > c })
		copy(cols[p+1:i+1], cols[p:i])
		copy(vals[p+1:i+1], vals[p:i])
		cols[p] = c
		vals[p] = v
	}
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	N      int
	RowPtr []int32
	Col    []int32
	Val    []float64
	// splits caches the nnz-balanced row boundaries used by the parallel
	// MulVec. Builder-produced matrices get them precomputed; hand-built
	// matrices compute them on the fly (uncached, so CSR literals stay
	// safe for concurrent reads).
	splits []int32
}

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
	par.For(m.N, buildRowGrain, func(lo, hi int) {
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
