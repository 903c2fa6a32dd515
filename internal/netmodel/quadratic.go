package netmodel

import (
	"math"
	"slices"
	"sync"

	"complx/internal/netlist"
	"complx/internal/par"
	"complx/internal/sparse"
)

// Assembly decomposition constants. Like every user of package par, the
// chunking is a pure function of the netlist, never of the worker count,
// and every row is built by exactly one chunk, so assembly is bitwise
// deterministic at any parallelism level.
const (
	// pinGrain is the pin chunk length of the pass that fills the pin
	// coordinate table.
	pinGrain = 16384
	// netGrain is the net chunk length of the per-net pass, which finds
	// each B2B net's bound pins.
	netGrain = 4096
	// rowGrain is the variable chunk length of the per-row pass.
	rowGrain = 256
)

// Model selects how multi-pin nets are decomposed into two-pin quadratic
// terms.
type Model int

const (
	// B2B is the Bound2Bound model: every pin connects to the two boundary
	// pins of the net. With linearized weights its energy equals the exact
	// HPWL at the linearization point.
	B2B Model = iota
	// Clique connects all pin pairs.
	Clique
	_ // retired star model; the other values stay stable
	// Hybrid uses Clique for nets of degree <= 3 and B2B otherwise.
	Hybrid
)

func (m Model) String() string {
	switch m {
	case B2B:
		return "b2b"
	case Clique:
		return "clique"
	case Hybrid:
		return "hybrid"
	default:
		return "unknown"
	}
}

// System is one dimension of the quadratic placement problem: minimize
// x^T A x - 2 b^T x, i.e. solve A x = b. The variables are the movable cell
// centers in netlist.Movables order.
type System struct {
	A *sparse.CSR
	B []float64
}

// Terms accumulates one variable's diagonal and right-hand side in one
// axis: first the net model's springs, then the caller's terms (see
// AssembleInto).
type Terms struct {
	diag, rhs float64
	hasDiag   bool
}

// Add folds w into the diagonal and b into the right-hand side. The
// diagonal starts at its first nonzero term; a zero w adds no diagonal
// entry, as a zero-weight spring stamps none.
func (t *Terms) Add(w, b float64) {
	if w != 0 {
		if t.hasDiag {
			t.diag += w
		} else {
			t.diag, t.hasDiag = w, true
		}
	}
	t.rhs += b
}

// Assembler builds per-dimension linear systems from a netlist at its
// current placement (the linearization point).
//
// Every AssembleInto rebuilds both systems in five passes. A per-pin pass
// fills the pin coordinate table and a per-net pass records each B2B net's
// bound pins. Then, for x and y concurrently, a fill pass sizes every variable's row
// from the bound pins and stamps each net's springs once, in net order,
// straight into the rows' slots of the CSR arrays. A per-row pass adds the
// caller's terms and sorts, merges and closes each row in place, and a
// compaction pass closes the gaps between rows. The CSR arrays, the tables
// and the per-worker sort scratch persist across calls, so the
// per-iteration rebuild of the outer placement loop stops allocating. One
// Assembler must not be used from multiple goroutines at once.
type Assembler struct {
	nl    *netlist.Netlist
	model Model
	// Eps bounds linearization denominators away from zero; the paper uses
	// 1.5x the row height.
	eps float64
	// varOf maps cell index to variable index; -1 for fixed cells.
	varOf []int32
	nMov  int

	// Tables and reusable output, created lazily on first AssembleInto.
	// pinPos holds every pin's absolute (x, y) coordinate at the
	// linearization point (cell center plus pin offset), filled once per
	// assembly so the springs read each pin's coordinate instead of
	// recomputing its cell center for every edge endpoint. bound holds each
	// B2B net's bound pins (min x, max x, min y, max y); bound[ni][0] is −1
	// on every other net. base[k] bounds variable k's off-diagonal entries
	// in one axis independently of the placement: two per pin on a B2B net
	// (its edges to the two bound pins) and p−1 per pin on a clique of p
	// pins; baseSum is their sum.
	pinPos  [][2]float64
	bound   [][4]int32
	base    []int32
	baseSum int
	sys     [2]axis

	// Per-call state. The pass functions are bound once so a launch hands
	// the pool no fresh closure.
	pinFn, netFn  func(int)
	rowFn         func(int)
	fill, compact *par.Pair
	extra         func(k int, x, y *Terms)
	mu            sync.Mutex
	free          []*rowScratch
}

// axis is one axis's system under construction. Between the fill and the
// compaction, variable k's row occupies m.Col/m.Val[span[k][0]:span[k][1]].
// During the fill its first slot holds the diagonal, with column −1 until
// the diagonal's first term; the per-row pass leaves the finished row at
// the front of the slots.
type axis struct {
	d    dim
	m    *sparse.CSR
	b    []float64
	span [][2]int32
}

// MinEps is the hard floor for the linearization denominator ε. Callers may
// pass any positive ε — including denormals — and pins may coincide exactly,
// in which case a weight 1/(|d|+ε) would overflow to +Inf and poison the
// linear system. Clamping ε here bounds every B2B/clique/hybrid weight. It
// also covers row-less designs, where the 1.5×row-height default would
// otherwise evaluate to zero.
const MinEps = 1e-12

// NewAssembler prepares an assembler for the given net model. eps is the
// linearization denominator floor; when <= 0 it defaults to 1.5x row height,
// and it is never allowed below MinEps.
func NewAssembler(nl *netlist.Netlist, model Model, eps float64) *Assembler {
	if eps <= 0 {
		eps = 1.5 * nl.RowHeight()
	}
	if !(eps >= MinEps) { // also catches NaN
		eps = MinEps
	}
	a := &Assembler{nl: nl, model: model, eps: eps}
	a.varOf = make([]int32, len(nl.Cells))
	for i := range a.varOf {
		a.varOf[i] = -1
	}
	for k, i := range nl.Movables() {
		a.varOf[i] = int32(k)
	}
	a.nMov = nl.NumMovable()
	return a
}

// NumVars returns the variable count per dimension: the movable cells.
func (a *Assembler) NumVars() int { return a.nMov }

// Eps returns the linearization floor in use.
func (a *Assembler) Eps() float64 { return a.eps }

// dim identifies an axis.
type dim int

const (
	dimX dim = iota
	dimY
)

// pinCoord returns the absolute pin coordinate and offset from cell center
// along d.
func (a *Assembler) pinCoord(p int, d dim) (abs, off float64, cell int) {
	pin := &a.nl.Pins[p]
	c := a.nl.Cells[pin.Cell].Center()
	if d == dimX {
		return c.X + pin.DX, pin.DX, pin.Cell
	}
	return c.Y + pin.DY, pin.DY, pin.Cell
}

// netModel resolves the decomposition of net ni: Hybrid is Clique on nets
// of degree <= 3 and B2B above.
func (a *Assembler) netModel(ni int) Model {
	if a.model != Hybrid {
		return a.model
	}
	if len(a.nl.Nets[ni].Pins) <= 3 {
		return Clique
	}
	return B2B
}

// Assemble builds the two per-dimension systems without extra terms. The
// returned systems alias assembler-owned buffers that are overwritten by
// the next Assemble/AssembleInto call.
func (a *Assembler) Assemble() (sx, sy System) {
	return a.AssembleInto(nil)
}

// ensureAssemblyState lazily builds the tables and output buffers.
func (a *Assembler) ensureAssemblyState() {
	if a.bound != nil {
		return
	}
	nl, n := a.nl, a.nMov
	a.bound = make([][4]int32, len(nl.Nets))
	a.base = make([]int32, n)
	for ni := range nl.Nets {
		pins := nl.Nets[ni].Pins
		a.bound[ni][0] = -1
		if len(pins) < 2 {
			continue
		}
		per := int32(2)
		if a.netModel(ni) == Clique {
			per = int32(len(pins) - 1)
		}
		for _, p := range pins {
			if v := a.varOf[nl.Pins[p].Cell]; v >= 0 {
				a.base[v] += per
				a.baseSum += int(per)
			}
		}
	}
	a.pinPos = make([][2]float64, len(nl.Pins))
	for d := range a.sys {
		a.sys[d] = axis{
			d:    dim(d),
			m:    &sparse.CSR{N: n, RowPtr: make([]int32, n+1)},
			b:    make([]float64, n),
			span: make([][2]int32, n),
		}
	}
	a.pinFn, a.netFn, a.rowFn = a.pinChunk, a.netChunk, a.rowChunk
	a.fill, a.compact = par.NewPair(a.fillAxis), par.NewPair(a.compactAxis)
}

// AssembleInto builds both systems at the current placement. extra, when
// non-nil, is called once per variable k after the net model's terms have
// been folded into k's rows, and adds the caller's terms — anchor
// pseudonets, regularization — to k's x and y diagonal and right-hand side
// through Terms.Add. It is called concurrently for different variables.
//
// All buffers persist inside the Assembler and are reused across calls: at
// a steady linearization and one worker the rebuild allocates nothing (a
// launch onto more workers allocates the pool's bookkeeping). The returned
// systems alias assembler-owned memory and are valid until the next call.
//
// Each row holds exactly what the reference path of stamping every spring
// as matrix triplets and merging them produced: its terms are generated in
// the serial emission order (nets in index order; within a B2B net the
// bound-to-bound edge, then each other pin's edges to the min and max
// bound; within a clique the pin pairs in lexicographic order; then the
// caller's terms), the diagonal and right-hand side are left folds in that
// order, and the off-diagonal entries are stably sorted by column and
// merged in that order. Each axis is filled by one goroutine and each row
// is finished by one, so the result is bitwise identical at any
// parallelism level.
func (a *Assembler) AssembleInto(extra func(k int, x, y *Terms)) (sx, sy System) {
	a.ensureAssemblyState()
	// One thread-budget lookup serves every launch of this assembly.
	lim := par.Current()
	par.RunIn(lim, par.Chunks(len(a.nl.Pins), pinGrain), a.pinFn)
	par.RunIn(lim, par.Chunks(len(a.nl.Nets), netGrain), a.netFn)
	a.fill.Run(lim)
	a.extra = extra
	par.RunIn(lim, par.Chunks(a.nMov, rowGrain), a.rowFn)
	a.extra = nil
	a.compact.Run(lim)
	x, y := &a.sys[dimX], &a.sys[dimY]
	return System{A: x.m, B: x.b}, System{A: y.m, B: y.b}
}

// pinChunk fills the coordinates of pin chunk c.
func (a *Assembler) pinChunk(c int) {
	nl := a.nl
	for p := c * pinGrain; p < min((c+1)*pinGrain, len(nl.Pins)); p++ {
		pin := &nl.Pins[p]
		cc := nl.Cells[pin.Cell].Center()
		a.pinPos[p] = [2]float64{cc.X + pin.DX, cc.Y + pin.DY}
	}
}

// netChunk records the bound pins of the B2B nets of net chunk c.
func (a *Assembler) netChunk(c int) {
	nl := a.nl
	for ni := c * netGrain; ni < min((c+1)*netGrain, len(nl.Nets)); ni++ {
		if pins := nl.Nets[ni].Pins; len(pins) >= 2 && a.netModel(ni) == B2B {
			minX, maxX := a.bounds(pins, dimX)
			minY, maxY := a.bounds(pins, dimY)
			a.bound[ni] = [4]int32{minX, maxX, minY, maxY}
		}
	}
}

// bounds returns a net's bound pins along d: the first pin at the minimum
// coordinate and the last pin at the maximum.
func (a *Assembler) bounds(pins []int, d dim) (minP, maxP int32) {
	minV, maxV := math.Inf(1), math.Inf(-1)
	minP, maxP = int32(pins[0]), int32(pins[0])
	for _, p := range pins {
		v := a.pinPos[p][d]
		if v < minV {
			minV, minP = v, int32(p)
		}
		if v >= maxV {
			maxV, maxP = v, int32(p)
		}
	}
	return minP, maxP
}

// fillAxis is the fill pass of axis d. It gives every row k a diagonal
// slot and room for base[k] entries plus p−3 more for each bound pin of a
// p-pin B2B net that k owns (a bound pin has up to p−1 edges where the base
// counts two), then stamps every net's springs in the serial emission
// order.
func (a *Assembler) fillAxis(d int) {
	nl, s := a.nl, &a.sys[d]
	m, n := s.m, a.nMov
	clear(s.span)
	total := n + a.baseSum
	for ni, b := range a.bound {
		minP, maxP := b[2*d], b[2*d+1]
		if minP < 0 || minP == maxP {
			continue
		}
		more := int32(len(nl.Nets[ni].Pins) - 3)
		for _, p := range [2]int32{minP, maxP} {
			if v := a.varOf[nl.Pins[p].Cell]; v >= 0 {
				s.span[v][1] += more
				total += int(more)
			}
		}
	}
	if cap(m.Col) < total {
		m.Col, m.Val = make([]int32, total*65/64), make([]float64, total*65/64)
	}
	m.Col, m.Val = m.Col[:cap(m.Col)], m.Val[:cap(m.Val)]
	start := int32(0)
	for k := 0; k < n; k++ {
		more := s.span[k][1]
		s.span[k] = [2]int32{start, start + 1}
		m.Col[start], m.Val[start] = -1, 0
		start += 1 + a.base[k] + more
	}
	clear(s.b)
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		pins := net.Pins
		if len(pins) < 2 {
			continue
		}
		if b := a.bound[ni]; b[0] >= 0 {
			minP, maxP := int(b[2*d]), int(b[2*d+1])
			if minP == maxP {
				continue
			}
			wBase := net.Weight / float64(len(pins)-1)
			a.spring(s, minP, maxP, wBase)
			for _, q := range pins {
				if q != minP && q != maxP {
					a.spring(s, q, minP, wBase)
					a.spring(s, q, maxP, wBase)
				}
			}
			continue
		}
		wBase := net.Weight * 2 / float64(len(pins))
		for i, p := range pins {
			for _, q := range pins[i+1:] {
				a.spring(s, p, q, wBase)
			}
		}
	}
}

// spring stamps the linearized spring w·(pos_i − pos_j)², with weight
// w = wBase/(|pos_i − pos_j| + ε), between pins i and j into the rows of
// their movable cells, where pos = variable + offset for movable cells and
// the absolute pin coordinate for fixed ones. Two pins on one cell exert
// no force.
func (a *Assembler) spring(s *axis, i, j int, wBase float64) {
	pi, pj := &a.nl.Pins[i], &a.nl.Pins[j]
	vi, vj := a.varOf[pi.Cell], a.varOf[pj.Cell]
	if pi.Cell == pj.Cell || vi < 0 && vj < 0 {
		return
	}
	posI, posJ := a.pinPos[i][s.d], a.pinPos[j][s.d]
	offI, offJ := pi.DX, pj.DX
	if s.d == dimY {
		offI, offJ = pi.DY, pj.DY
	}
	w := wBase / (math.Abs(posI-posJ) + a.eps)
	switch {
	case vi >= 0 && vj >= 0:
		c := offI - offJ
		s.add(vi, vj, w, -(w * c))
		s.add(vj, vi, w, w*c)
	case vi >= 0:
		s.add(vi, -1, w, w*(posJ-offI))
	default:
		s.add(vj, -1, w, w*(posI-offJ))
	}
}

// add folds one spring's terms into row v: the off-diagonal entry −w in
// column col (none for a fixed other end, col < 0, or a zero w), w into
// the diagonal, which starts at its first nonzero term, and rhs into the
// right-hand side.
func (s *axis) add(v, col int32, w, rhs float64) {
	m, r := s.m, &s.span[v]
	if w != 0 {
		if col >= 0 {
			e := r[1]
			m.Col[e], m.Val[e] = col, -w
			r[1] = e + 1
		}
		// The slot starts at +0, and 0 + w is w for any nonzero w, so the
		// sum equals the fold from the first term; the column marks the
		// diagonal present.
		d := r[0]
		m.Col[d] = v
		m.Val[d] += w
	}
	s.b[v] += rhs
}

// rowChunk is the per-row pass over variable chunk c: it adds the caller's
// terms to each row and finishes the row in both axes.
func (a *Assembler) rowChunk(c int) {
	sc := a.scratch()
	x, y := &a.sys[dimX], &a.sys[dimY]
	for k := c * rowGrain; k < min((c+1)*rowGrain, a.nMov); k++ {
		sc.tx, sc.ty = x.terms(k), y.terms(k)
		if a.extra != nil {
			a.extra(k, &sc.tx, &sc.ty)
		}
		x.finish(k, sc.tx, sc)
		y.finish(k, sc.ty, sc)
	}
	a.mu.Lock()
	a.free = append(a.free, sc)
	a.mu.Unlock()
}

// scratch takes a free worker scratch, or makes one.
func (a *Assembler) scratch() *rowScratch {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		sc := a.free[n-1]
		a.free = a.free[:n-1]
		return sc
	}
	return &rowScratch{}
}

// terms returns row k's net-model diagonal and right-hand side.
func (s *axis) terms(k int) Terms {
	d := s.span[k][0]
	return Terms{diag: s.m.Val[d], rhs: s.b[k], hasDiag: s.m.Col[d] >= 0}
}

// finish stably sorts row k's off-diagonal entries by column, merges
// duplicates in emission order, inserts t's diagonal, when it has one,
// between the columns below and above it, and records t's right-hand side.
// The finished row starts at the row's diagonal slot.
func (s *axis) finish(k int, t Terms, sc *rowScratch) {
	m := s.m
	lo, hi := int(s.span[k][0]), int(s.span[k][1])
	cols, vals := m.Col[lo+1:hi], m.Val[lo+1:hi]
	w := 0
	if len(cols) > 0 {
		sc.sortRow(cols, vals)
		for i := 1; i < len(cols); i++ {
			if cols[i] == cols[w] {
				vals[w] += vals[i]
			} else {
				w++
				cols[w], vals[w] = cols[i], vals[i]
			}
		}
		w++
	}
	// Move the columns below k down by one slot, into the diagonal slot.
	i := lo
	for ; i < lo+w && int(m.Col[i+1]) < k; i++ {
		m.Col[i], m.Val[i] = m.Col[i+1], m.Val[i+1]
	}
	if t.hasDiag {
		m.Col[i], m.Val[i] = int32(k), t.diag
		w++
	} else {
		copy(m.Col[i:lo+w], m.Col[i+1:])
		copy(m.Val[i:lo+w], m.Val[i+1:])
	}
	s.span[k][1] = int32(lo + w)
	s.b[k] = t.rhs
}

// compactAxis closes the gaps between axis d's finished rows, sets its row
// pointers and seals the matrix.
func (a *Assembler) compactAxis(d int) {
	s := &a.sys[d]
	m := s.m
	w := int32(0)
	for k := 0; k < a.nMov; k++ {
		lo, hi := s.span[k][0], s.span[k][1]
		if lo != w {
			copy(m.Col[w:hi-lo+w], m.Col[lo:hi])
			copy(m.Val[w:hi-lo+w], m.Val[lo:hi])
		}
		m.RowPtr[k] = w
		w += hi - lo
	}
	m.RowPtr[a.nMov] = w
	m.Col, m.Val = m.Col[:w], m.Val[:w]
	m.Seal()
}

// rowScratch is one worker's state in the per-row pass: the current
// row's terms, which the caller's callback reaches by pointer, and the
// buffers for sorting long rows.
type rowScratch struct {
	tx, ty Terms
	keys   []uint64
	tmp    []float64
}

// sortRow stably sorts a row's (col, val) pairs by column. Stability keeps
// duplicate entries in emission order so their summation order is
// deterministic. Short rows (a handful of springs per variable) use
// insertion sort; longer ones sort (col, emission index) keys, which are
// unique, and then gather the values.
func (sc *rowScratch) sortRow(cols []int32, vals []float64) {
	if len(cols) > 16 {
		keys := sc.keys[:0]
		for i, c := range cols {
			keys = append(keys, uint64(c)<<32|uint64(i))
		}
		slices.Sort(keys)
		sc.tmp = append(sc.tmp[:0], vals...)
		for i, k := range keys {
			cols[i], vals[i] = int32(k>>32), sc.tmp[uint32(k)]
		}
		sc.keys = keys
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

// Energy evaluates the model objective at the current placement by direct
// edge enumeration; the tests check the assembled systems against it. For
// B2B with exact (eps=0-style) weights this approximates the weighted HPWL.
func (a *Assembler) Energy() float64 {
	var total float64
	for ni := range a.nl.Nets {
		if len(a.nl.Nets[ni].Pins) < 2 {
			continue
		}
		if a.netModel(ni) == Clique {
			total += a.cliqueEnergy(ni, dimX) + a.cliqueEnergy(ni, dimY)
		} else {
			total += a.b2bEnergy(ni, dimX) + a.b2bEnergy(ni, dimY)
		}
	}
	return total
}

func (a *Assembler) b2bEnergy(ni int, d dim) float64 {
	net := &a.nl.Nets[ni]
	p := len(net.Pins)
	minP, maxP := net.Pins[0], net.Pins[0]
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, pin := range net.Pins {
		v, _, _ := a.pinCoord(pin, d)
		if v < minV {
			minV, minP = v, pin
		}
		if v >= maxV {
			maxV, maxP = v, pin
		}
	}
	if minP == maxP {
		return 0
	}
	wBase := net.Weight / float64(p-1)
	e := func(vi, vj float64) float64 {
		d := vi - vj
		return wBase * d * d / (math.Abs(d) + a.eps)
	}
	total := e(minV, maxV)
	for _, pin := range net.Pins {
		if pin == minP || pin == maxP {
			continue
		}
		v, _, _ := a.pinCoord(pin, d)
		total += e(v, minV) + e(v, maxV)
	}
	return total
}

func (a *Assembler) cliqueEnergy(ni int, d dim) float64 {
	net := &a.nl.Nets[ni]
	p := len(net.Pins)
	wBase := net.Weight * 2 / float64(p)
	var total float64
	for i := 0; i < p; i++ {
		vi, _, _ := a.pinCoord(net.Pins[i], d)
		for j := i + 1; j < p; j++ {
			vj, _, _ := a.pinCoord(net.Pins[j], d)
			dd := vi - vj
			total += wBase * dd * dd / (math.Abs(dd) + a.eps)
		}
	}
	return total
}
