package netmodel

import (
	"math"

	"complx/internal/netlist"
	"complx/internal/par"
	"complx/internal/sparse"
)

// Assembly decomposition constants. Like every user of package par, the
// shard partition is a pure function of the netlist (total pin count), never
// of the worker count, so assembly is bitwise deterministic at any
// parallelism level.
const (
	// assemblyPinGrain is the target number of pins per assembly shard.
	assemblyPinGrain = 4096
	// maxAssemblyChunks caps the shard count.
	maxAssemblyChunks = 32
	// rhsMergeGrain is the element chunk length for zeroing/merging the
	// dense right-hand sides.
	rhsMergeGrain = 16384
	// pinCoordGrain is the pin chunk length for filling the pin coordinate
	// table.
	pinCoordGrain = 8192
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

// rhsAcc accumulates right-hand-side contributions as (index, value) pairs.
// Shard-local pair lists let assembly run in parallel without write races on
// a shared dense vector; merging the lists in shard order afterwards
// reproduces the exact serial summation order.
type rhsAcc struct {
	terms []rhsTerm
}

type rhsTerm struct {
	i int32
	v float64
}

func (r *rhsAcc) add(i int, v float64) { r.terms = append(r.terms, rhsTerm{int32(i), v}) }

func (r *rhsAcc) reset() { r.terms = r.terms[:0] }

// addTo adds the pairs into the dense vector f in emission order.
func (r *rhsAcc) addTo(f []float64) {
	for _, t := range r.terms {
		f[t.i] += t.v
	}
}

// Assembler builds per-dimension linear systems from a netlist at its
// current placement (the linearization point).
//
// An Assembler is also an incremental-assembly cache: AssembleInto reuses
// the shard builders, right-hand-side buffers, CSR output arrays and build
// scratch across calls, so the per-iteration system rebuild of the outer
// placement loop stops allocating. One Assembler must not be used from
// multiple goroutines at once.
type Assembler struct {
	nl    *netlist.Netlist
	model Model
	// Eps bounds linearization denominators away from zero; the paper uses
	// 1.5x the row height.
	eps float64
	// varOf maps cell index to variable index; -1 for fixed cells.
	varOf []int
	nMov  int
	// pinX, pinY hold every pin's absolute coordinate at the linearization
	// point (cell center plus pin offset), filled once per assembly so the
	// stamps read each pin's coordinate instead of recomputing its cell
	// center for every edge endpoint.
	pinX, pinY []float64

	// Reusable assembly state, created lazily on first AssembleInto.
	chunk            []int32 // shard net-range boundaries, len = nchunks+1
	shX, shY         []*sparse.Builder
	rhX, rhY         []*rhsAcc
	extraX, extraY   *sparse.Builder
	fx, fy           []float64
	mx, my           *sparse.CSR
	bsX, bsY         sparse.BuildScratch
	shardsX, shardsY []*sparse.Builder // scratch: shX/shY + extra
	buildPair        *par.Pair         // runs buildDim for x and y
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
	a.varOf = make([]int, len(nl.Cells))
	for i := range a.varOf {
		a.varOf[i] = -1
	}
	for k, i := range nl.Movables() {
		a.varOf[i] = k
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

// fillPinCoords computes the pin coordinate table from the current cell
// positions, in parallel over fixed pin chunks (each entry is written by
// exactly one chunk, so the table is independent of the worker count).
func (a *Assembler) fillPinCoords(lim *par.Limit) {
	pins, cells := a.nl.Pins, a.nl.Cells
	if cap(a.pinX) < len(pins) {
		a.pinX = make([]float64, len(pins))
		a.pinY = make([]float64, len(pins))
	}
	px, py := a.pinX[:len(pins)], a.pinY[:len(pins)]
	par.ForIn(lim, len(pins), pinCoordGrain, func(lo, hi int) {
		for p := lo; p < hi; p++ {
			pin := &pins[p]
			c := cells[pin.Cell].Center()
			px[p] = c.X + pin.DX
			py[p] = c.Y + pin.DY
		}
	})
}

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

// pinPos is pinCoord read from the pin coordinate table, which the stamps
// use; the table must be current (see fillPinCoords).
func (a *Assembler) pinPos(p int, d dim) (abs, off float64, cell int) {
	pin := &a.nl.Pins[p]
	if d == dimX {
		return a.pinX[p], pin.DX, pin.Cell
	}
	return a.pinY[p], pin.DY, pin.Cell
}

// edge stamps the quadratic term w*(pos_i - pos_j)^2 for pins i and j into
// builder/rhs, where pos = variable + offset for movable cells and the
// absolute pin coordinate for fixed ones.
func (a *Assembler) edge(b *sparse.Builder, rhs *rhsAcc, pi, pj int, d dim, w float64) {
	absI, offI, ci := a.pinPos(pi, d)
	absJ, offJ, cj := a.pinPos(pj, d)
	vi, vj := a.varOf[ci], a.varOf[cj]
	switch {
	case vi >= 0 && vj >= 0:
		if ci == cj {
			return // both pins on the same cell: no force
		}
		b.AddSym(vi, vj, w)
		c := offI - offJ
		rhs.add(vi, -(w * c))
		rhs.add(vj, w*c)
	case vi >= 0:
		b.AddDiag(vi, w)
		rhs.add(vi, w*(absJ-offI))
	case vj >= 0:
		b.AddDiag(vj, w)
		rhs.add(vj, w*(absI-offJ))
	}
}

// stampNet stamps net ni's decomposition into the given per-dimension
// builders and rhs accumulators.
func (a *Assembler) stampNet(ni int, bx, by *sparse.Builder, rx, ry *rhsAcc) {
	net := &a.nl.Nets[ni]
	if len(net.Pins) < 2 {
		return
	}
	if a.netModel(ni) == Clique {
		a.stampClique(bx, rx, ni, dimX)
		a.stampClique(by, ry, ni, dimY)
	} else {
		a.stampB2B(bx, rx, ni, dimX)
		a.stampB2B(by, ry, ni, dimY)
	}
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

// ensureAssemblyState lazily builds the fixed shard partition (balanced by
// pin count) and the reusable per-shard builders and rhs accumulators.
func (a *Assembler) ensureAssemblyState() {
	if a.chunk != nil {
		return
	}
	nNets := len(a.nl.Nets)
	totalPins := 0
	for i := 0; i < nNets; i++ {
		totalPins += len(a.nl.Nets[i].Pins)
	}
	nc := totalPins / assemblyPinGrain
	if nc > maxAssemblyChunks {
		nc = maxAssemblyChunks
	}
	if nc > nNets {
		nc = nNets
	}
	if nc < 1 {
		nc = 1
	}
	a.buildPair = par.NewPair(a.buildDim)
	a.chunk = append(a.chunk, 0)
	if nc > 1 {
		acc, next := 0, 1
		for ni := 0; ni < nNets; ni++ {
			acc += len(a.nl.Nets[ni].Pins)
			for next < nc && int64(acc)*int64(nc) >= int64(totalPins)*int64(next) {
				if cut := int32(ni + 1); cut > a.chunk[len(a.chunk)-1] && int(cut) < nNets {
					a.chunk = append(a.chunk, cut)
				}
				next++
			}
		}
	}
	a.chunk = append(a.chunk, int32(nNets))

	n := a.NumVars()
	nShards := len(a.chunk) - 1
	for c := 0; c < nShards; c++ {
		a.shX = append(a.shX, sparse.NewBuilder(n))
		a.shY = append(a.shY, sparse.NewBuilder(n))
		a.rhX = append(a.rhX, &rhsAcc{})
		a.rhY = append(a.rhY, &rhsAcc{})
	}
	a.extraX, a.extraY = sparse.NewBuilder(n), sparse.NewBuilder(n)
	a.fx = make([]float64, n)
	a.fy = make([]float64, n)
}

// AssembleInto stamps the net model in parallel over the fixed net shards,
// invokes extra (when non-nil) to stamp additional terms — anchor pseudonets,
// regularization — into a dedicated trailing shard and the merged dense
// right-hand sides, and builds both systems.
//
// All buffers (shard triplet arrays, rhs accumulators, dense rhs, CSR
// arrays, build scratch) persist inside the Assembler and are reused across
// calls: after the first iteration the primal system rebuild is
// allocation-free. The returned systems alias assembler-owned memory and
// are valid until the next call.
//
// Determinism: shard boundaries depend only on the netlist; the triplet
// stream seen by the CSR build is the concatenation of the shards in index
// order — exactly the serial stamping order — and the rhs pair lists are
// merged in the same order, so the result is bitwise identical at any
// parallelism level.
func (a *Assembler) AssembleInto(extra func(bx, by *sparse.Builder, fx, fy []float64)) (sx, sy System) {
	a.ensureAssemblyState()
	nShards := len(a.chunk) - 1
	// One thread-budget lookup serves every launch of this assembly.
	lim := par.Current()
	a.fillPinCoords(lim)

	// Parallel shard stamping: each shard owns its builders/accumulators.
	par.RunIn(lim, nShards, func(c int) {
		bx, by, rx, ry := a.shX[c], a.shY[c], a.rhX[c], a.rhY[c]
		bx.Reset()
		by.Reset()
		rx.reset()
		ry.reset()
		for ni := int(a.chunk[c]); ni < int(a.chunk[c+1]); ni++ {
			a.stampNet(ni, bx, by, rx, ry)
		}
	})

	// Merge rhs pair lists in shard order (sequential: summation order must
	// equal the serial emission order).
	n := a.NumVars()
	fx, fy := a.fx[:n], a.fy[:n]
	par.ForIn(lim, n, rhsMergeGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fx[i] = 0
			fy[i] = 0
		}
	})
	for c := 0; c < nShards; c++ {
		a.rhX[c].addTo(fx)
		a.rhY[c].addTo(fy)
	}

	// Caller terms go into the trailing shard, so they follow the net model
	// in emission order.
	a.extraX.Reset()
	a.extraY.Reset()
	if extra != nil {
		extra(a.extraX, a.extraY, fx, fy)
	}

	a.shardsX = append(a.shardsX[:0], a.shX...)
	a.shardsX = append(a.shardsX, a.extraX)
	a.shardsY = append(a.shardsY[:0], a.shY...)
	a.shardsY = append(a.shardsY, a.extraY)

	// The two dimensions build concurrently; each build is itself parallel
	// over row chunks.
	a.buildPair.Run(lim)
	return System{A: a.mx, B: fx}, System{A: a.my, B: fy}
}

// buildDim builds dimension d's system (0: x, 1: y) from its shards.
func (a *Assembler) buildDim(d int) {
	if d == 0 {
		a.mx = sparse.BuildMergedInto(a.mx, &a.bsX, a.NumVars(), a.shardsX...)
	} else {
		a.my = sparse.BuildMergedInto(a.my, &a.bsY, a.NumVars(), a.shardsY...)
	}
}

func (a *Assembler) stampB2B(b *sparse.Builder, rhs *rhsAcc, ni int, d dim) {
	net := &a.nl.Nets[ni]
	p := len(net.Pins)
	// Locate boundary pins.
	minP, maxP := net.Pins[0], net.Pins[0]
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, pin := range net.Pins {
		v, _, _ := a.pinPos(pin, d)
		if v < minV {
			minV, minP = v, pin
		}
		if v >= maxV {
			maxV, maxP = v, pin
		}
	}
	if minP == maxP {
		return
	}
	wBase := net.Weight / float64(p-1)
	w := func(vi, vj float64) float64 {
		return wBase / (math.Abs(vi-vj) + a.eps)
	}
	a.edge(b, rhs, minP, maxP, d, w(minV, maxV))
	for _, pin := range net.Pins {
		if pin == minP || pin == maxP {
			continue
		}
		v, _, _ := a.pinPos(pin, d)
		a.edge(b, rhs, pin, minP, d, w(v, minV))
		a.edge(b, rhs, pin, maxP, d, w(v, maxV))
	}
}

func (a *Assembler) stampClique(b *sparse.Builder, rhs *rhsAcc, ni int, d dim) {
	net := &a.nl.Nets[ni]
	p := len(net.Pins)
	wBase := net.Weight * 2 / float64(p)
	for i := 0; i < p; i++ {
		vi, _, _ := a.pinPos(net.Pins[i], d)
		for j := i + 1; j < p; j++ {
			vj, _, _ := a.pinPos(net.Pins[j], d)
			w := wBase / (math.Abs(vi-vj) + a.eps)
			a.edge(b, rhs, net.Pins[i], net.Pins[j], d, w)
		}
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
