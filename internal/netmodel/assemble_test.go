package netmodel

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"complx/internal/gen"
	"complx/internal/geom"
	"complx/internal/netlist"
	"complx/internal/par"
	"complx/internal/sparse"
)

// refAssembler is the reference assembly path: every spring is stamped as
// matrix triplets into a sparse.Builder, in the serial emission order, and
// every right-hand-side term is added to a dense vector in the same order;
// the caller's terms follow the net model. Builder.Build merges the stream
// by a stable sort and an in-order fold of each duplicate run.
type refAssembler struct {
	*Assembler
	bx, by *sparse.Builder
	fx, fy []float64
}

func newRefAssembler(nl *netlist.Netlist, model Model) *refAssembler {
	a := NewAssembler(nl, model, 0)
	n := a.NumVars()
	return &refAssembler{Assembler: a, bx: sparse.NewBuilder(n), by: sparse.NewBuilder(n)}
}

// assemble builds both systems; extra, when non-nil, adds the caller's
// terms as AssembleInto's callback would, through add.
func (r *refAssembler) assemble(extra func(k int, add func(wx, bx, wy, by float64))) (sx, sy System) {
	n := r.NumVars()
	r.fx, r.fy = make([]float64, n), make([]float64, n)
	for ni := range r.nl.Nets {
		if len(r.nl.Nets[ni].Pins) < 2 {
			continue
		}
		for _, d := range []dim{dimX, dimY} {
			if r.netModel(ni) == Clique {
				r.stampClique(ni, d)
			} else {
				r.stampB2B(ni, d)
			}
		}
	}
	if extra != nil {
		for k := 0; k < n; k++ {
			extra(k, func(wx, bx, wy, by float64) {
				r.bx.AddDiag(k, wx)
				r.fx[k] += bx
				r.by.AddDiag(k, wy)
				r.fy[k] += by
			})
		}
	}
	return System{A: r.bx.Build(), B: r.fx}, System{A: r.by.Build(), B: r.fy}
}

func (r *refAssembler) edge(pi, pj int, d dim, w float64) {
	b, f := r.bx, r.fx
	if d == dimY {
		b, f = r.by, r.fy
	}
	absI, offI, ci := r.pinCoord(pi, d)
	absJ, offJ, cj := r.pinCoord(pj, d)
	vi, vj := int(r.varOf[ci]), int(r.varOf[cj])
	switch {
	case vi >= 0 && vj >= 0:
		if ci == cj {
			return
		}
		b.AddSym(vi, vj, w)
		c := offI - offJ
		f[vi] += -(w * c)
		f[vj] += w * c
	case vi >= 0:
		b.AddDiag(vi, w)
		f[vi] += w * (absJ - offI)
	case vj >= 0:
		b.AddDiag(vj, w)
		f[vj] += w * (absI - offJ)
	}
}

func (r *refAssembler) stampB2B(ni int, d dim) {
	net := &r.nl.Nets[ni]
	minP, maxP := net.Pins[0], net.Pins[0]
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, pin := range net.Pins {
		v, _, _ := r.pinCoord(pin, d)
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
	wBase := net.Weight / float64(len(net.Pins)-1)
	w := func(vi, vj float64) float64 { return wBase / (math.Abs(vi-vj) + r.eps) }
	r.edge(minP, maxP, d, w(minV, maxV))
	for _, pin := range net.Pins {
		if pin == minP || pin == maxP {
			continue
		}
		v, _, _ := r.pinCoord(pin, d)
		r.edge(pin, minP, d, w(v, minV))
		r.edge(pin, maxP, d, w(v, maxV))
	}
}

func (r *refAssembler) stampClique(ni int, d dim) {
	net := &r.nl.Nets[ni]
	p := len(net.Pins)
	wBase := net.Weight * 2 / float64(p)
	for i := 0; i < p; i++ {
		vi, _, _ := r.pinCoord(net.Pins[i], d)
		for j := i + 1; j < p; j++ {
			vj, _, _ := r.pinCoord(net.Pins[j], d)
			r.edge(net.Pins[i], net.Pins[j], d, wBase/(math.Abs(vi-vj)+r.eps))
		}
	}
}

// tangledDesign is a random design with the cases the assembly must get
// right: fixed cells, degree-1 nets, nets whose pins share a cell, cells
// owning several pins of one net (often a bound pin), coordinate ties, and
// a hub net whose bound owners get rows longer than the insertion sort's
// cutoff.
func tangledDesign(rng *rand.Rand, nCells, nNets int) *netlist.Netlist {
	b := netlist.NewBuilder("tangled")
	b.SetCore(geom.Rect{XMax: 100, YMax: 100})
	var ids []int
	for i := 0; i < nCells; i++ {
		ids = append(ids, b.AddCell(cellName(i), 1, 1))
	}
	for i := 0; i < 1+nCells/10; i++ {
		ids = append(ids, b.AddFixed(netName(i)+"pad", 100*rng.Float64(), 100*rng.Float64(), 1, 1))
	}
	// Pin offsets come from a short list so that pins of one cell tie.
	offs := []float64{-0.5, 0, 0, 0.25, 0.5}
	pin := func(c int) netlist.PinSpec {
		return netlist.PinSpec{Cell: c, DX: offs[rng.Intn(len(offs))], DY: offs[rng.Intn(len(offs))]}
	}
	for n := 0; n < nNets; n++ {
		deg := 1 + rng.Intn(7)
		if n == nNets/2 {
			deg = 90
		}
		var pins []netlist.PinSpec
		for len(pins) < deg {
			c := ids[rng.Intn(len(ids))]
			if len(pins) > 0 && rng.Intn(5) == 0 {
				c = pins[rng.Intn(len(pins))].Cell // another pin on a cell already in the net
			}
			pins = append(pins, pin(c))
		}
		b.AddNet(netName(n), 0.5+rng.Float64(), pins)
	}
	nl, err := b.Build()
	if err != nil {
		panic(err)
	}
	for _, i := range nl.Movables() {
		// A coarse grid makes coordinate ties between cells common.
		nl.Cells[i].SetCenter(geom.Point{X: float64(rng.Intn(40)) * 2.5, Y: float64(rng.Intn(40)) * 2.5})
	}
	return nl
}

// anchorTerms returns the caller terms of a synthetic anchored solve: an
// anchor pseudonet on most variables, then the regularization, both with
// qp's arithmetic.
func anchorTerms(nl *netlist.Netlist, seed int64) func(k int, add func(wx, bx, wy, by float64)) {
	rng := rand.New(rand.NewSource(seed))
	n := nl.NumMovable()
	lam, ax, ay := make([]float64, n), make([]float64, n), make([]float64, n)
	for k := range lam {
		if rng.Intn(4) > 0 {
			lam[k] = rng.ExpFloat64()
		}
		ax[k], ay[k] = 100*rng.Float64(), 100*rng.Float64()
	}
	mov := nl.Movables()
	cc := nl.Core.Center()
	return func(k int, add func(wx, bx, wy, by float64)) {
		if lam[k] > 0 {
			c := nl.Cells[mov[k]].Center()
			wx := lam[k] / (math.Abs(c.X-ax[k]) + 1.5)
			wy := lam[k] / (math.Abs(c.Y-ay[k]) + 1.5)
			add(wx, wx*ax[k], wy, wy*ay[k])
		}
		add(1e-12, 1e-12*cc.X, 1e-12, 1e-12*cc.Y)
	}
}

// sameSystem fails unless got equals want bit for bit: RowPtr, Col, Val
// and the right-hand side.
func sameSystem(t *testing.T, what string, got, want System) {
	t.Helper()
	g, w := got.A, want.A
	if g.N != w.N || len(g.RowPtr) != len(w.RowPtr) || len(g.Col) != len(w.Col) || len(g.Val) != len(w.Val) || len(got.B) != len(want.B) {
		t.Fatalf("%s: shape n=%d nnz=%d/%d, want n=%d nnz=%d/%d", what, g.N, len(g.Col), len(g.Val), w.N, len(w.Col), len(w.Val))
	}
	for i := range w.RowPtr {
		if g.RowPtr[i] != w.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, want %d", what, i, g.RowPtr[i], w.RowPtr[i])
		}
	}
	for i := range w.Col {
		if g.Col[i] != w.Col[i] || math.Float64bits(g.Val[i]) != math.Float64bits(w.Val[i]) {
			t.Fatalf("%s: entry %d = (%d, %x), want (%d, %x)", what, i,
				g.Col[i], math.Float64bits(g.Val[i]), w.Col[i], math.Float64bits(w.Val[i]))
		}
	}
	for i := range want.B {
		if math.Float64bits(got.B[i]) != math.Float64bits(want.B[i]) {
			t.Fatalf("%s: B[%d] = %x, want %x", what, i, math.Float64bits(got.B[i]), math.Float64bits(want.B[i]))
		}
	}
}

// TestAssemblerMatchesReference checks the assembly against
// the reference triplet path, bit for bit, under every net model, with and
// without caller terms, at several pool sizes.
func TestAssemblerMatchesReference(t *testing.T) {
	defer par.SetThreads(0)
	for _, size := range []struct {
		cells, nets int
		seed        int64
	}{{4, 6, 1}, {60, 90, 2}, {1500, 1700, 3}} {
		nl := tangledDesign(rand.New(rand.NewSource(size.seed)), size.cells, size.nets)
		for _, model := range []Model{B2B, Clique, Hybrid} {
			for _, anchored := range []bool{false, true} {
				var terms func(k int, add func(wx, bx, wy, by float64))
				var extra func(k int, x, y *Terms)
				if anchored {
					terms = anchorTerms(nl, size.seed)
					extra = func(k int, x, y *Terms) {
						terms(k, func(wx, bx, wy, by float64) {
							x.Add(wx, bx)
							y.Add(wy, by)
						})
					}
				}
				wantX, wantY := newRefAssembler(nl, model).assemble(terms)
				for _, threads := range []int{1, 2, 8} {
					par.SetThreads(threads)
					a := NewAssembler(nl, model, 0)
					for rep := 0; rep < 2; rep++ { // the second call reuses every buffer
						sx, sy := a.AssembleInto(extra)
						what := model.String() + "/" + map[bool]string{false: "plain", true: "anchored"}[anchored]
						sameSystem(t, what+" x", sx, wantX)
						sameSystem(t, what+" y", sy, wantY)
					}
				}
			}
		}
	}
}

// TestAssembleFollowsNetlistChanges: an Assembler reused after the cells
// move and net weights change (as timing-driven reweighting does) builds
// what a fresh reference assembly of the changed netlist builds.
func TestAssembleFollowsNetlistChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nl := tangledDesign(rng, 400, 500)
	a := NewAssembler(nl, Hybrid, 0)
	a.Assemble()
	for round := 0; round < 3; round++ {
		for ni := range nl.Nets {
			if rng.Intn(3) == 0 {
				nl.Nets[ni].Weight *= 0.5 + 2*rng.Float64()
			}
		}
		for _, i := range nl.Movables() {
			nl.Cells[i].SetCenter(geom.Point{X: 100 * rng.Float64(), Y: 100 * rng.Float64()})
		}
		wantX, wantY := newRefAssembler(nl, Hybrid).assemble(nil)
		sx, sy := a.Assemble()
		sameSystem(t, "x", sx, wantX)
		sameSystem(t, "y", sy, wantY)
	}
}

// TestAssembleSteadyStateAllocs: once warmed up, rebuilding the systems at
// an unchanged linearization allocates nothing, with caller terms.
func TestAssembleSteadyStateAllocs(t *testing.T) {
	defer par.SetThreads(0)
	par.SetThreads(1)
	nl := randomDesign(rand.New(rand.NewSource(5)), 3000, 3300)
	a := NewAssembler(nl, B2B, 0)
	extra := func(k int, x, y *Terms) {
		x.Add(1e-12, 1e-12*50)
		y.Add(1e-12, 1e-12*50)
	}
	a.AssembleInto(extra)
	if n := testing.AllocsPerRun(5, func() { a.AssembleInto(extra) }); n != 0 {
		t.Fatalf("steady-state AssembleInto allocated %v times per call, want 0", n)
	}
}

// TestAssemblerRetainedHeap bounds what an Assembler keeps live between
// calls on a ~10K-cell design at two workers: the two systems (CSR arrays
// and right-hand sides) with a quarter on top for the rows' spare slots,
// the per-row tables and the per-worker sort scratch, plus 16 B per pin
// (the pin coordinate table) and 16 B per net (the bound pins).
func TestAssemblerRetainedHeap(t *testing.T) {
	defer par.SetThreads(0)
	par.SetThreads(2)
	nl, err := gen.Generate(gen.Spec{Name: "heap", NumCells: 10_000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, i := range nl.Movables() {
		nl.Cells[i].SetCenter(geom.Point{
			X: nl.Core.XMin + rng.Float64()*(nl.Core.XMax-nl.Core.XMin),
			Y: nl.Core.YMin + rng.Float64()*(nl.Core.YMax-nl.Core.YMin),
		})
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	a := NewAssembler(nl, B2B, 0)
	for i := 0; i < 3; i++ {
		a.Assemble()
	}
	retained := int64(heap()) - int64(before)
	sx, sy := a.Assemble()
	var sys int64
	for _, s := range []System{sx, sy} {
		sys += int64(4*len(s.A.RowPtr) + 4*len(s.A.Col) + 8*len(s.A.Val) + 8*len(s.B))
	}
	bound := sys*5/4 + 16*int64(len(nl.Pins)) + 16*int64(len(nl.Nets))
	t.Logf("retained %d B, systems %d B, bound %d B (%d pins, %d nets)", retained, sys, bound, len(nl.Pins), len(nl.Nets))
	if retained > bound {
		t.Fatalf("assembler retains %d B, over the %d B bound", retained, bound)
	}
	runtime.KeepAlive(a)
}
