// Package netmodel evaluates interconnect objectives and assembles the
// linearized-quadratic systems used by analytical placement.
//
// It provides the exact (weighted) half-perimeter wirelength, and the
// decompositions of multi-pin nets into two-pin quadratic terms: the
// Bound2Bound model of Spindler et al. (which reproduces HPWL exactly at the
// linearization point), the clique model, and their hybrid (clique on small
// nets, B2B on large ones). Any of them can instantiate Φ in the ComPLx
// Lagrangian.
package netmodel

import (
	"math"

	"complx/internal/netlist"
	"complx/internal/par"
)

// hpwlBlock is the fixed per-partial net block for parallel HPWL reduction.
// Partial sums are computed per block and added in block order, so the total
// is bitwise deterministic at any parallelism level.
const hpwlBlock = 1024

// netSum reduces f(net) over all nets of nl deterministically: nets are
// grouped into fixed blocks of hpwlBlock, block partials are computed
// (possibly in parallel) and summed in block order.
func netSum(nl *netlist.Netlist, f func(n int) float64) float64 {
	n := len(nl.Nets)
	if n <= hpwlBlock {
		var total float64
		for i := 0; i < n; i++ {
			total += f(i)
		}
		return total
	}
	partial := make([]float64, par.Chunks(n, hpwlBlock))
	par.For(n, hpwlBlock, func(lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += f(i)
		}
		partial[lo/hpwlBlock] = s
	})
	var total float64
	for _, v := range partial {
		total += v
	}
	return total
}

// HPWL returns the unweighted half-perimeter wirelength of the design at its
// current cell positions. Nets with fewer than two pins contribute zero.
// Evaluation runs in parallel over fixed net blocks with a deterministic
// block-ordered reduction.
func HPWL(nl *netlist.Netlist) float64 {
	return netSum(nl, func(i int) float64 { return NetHPWL(nl, i) })
}

// WeightedHPWL returns the net-weight-scaled half-perimeter wirelength
// (paper Formula 1).
func WeightedHPWL(nl *netlist.Netlist) float64 {
	return netSum(nl, func(i int) float64 { return nl.Nets[i].Weight * NetHPWL(nl, i) })
}

// NetHPWL returns the half-perimeter of net n's pin bounding box.
func NetHPWL(nl *netlist.Netlist, n int) float64 {
	net := &nl.Nets[n]
	if len(net.Pins) < 2 {
		return 0
	}
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, p := range net.Pins {
		pt := nl.PinPosition(p)
		xmin = math.Min(xmin, pt.X)
		xmax = math.Max(xmax, pt.X)
		ymin = math.Min(ymin, pt.Y)
		ymax = math.Max(ymax, pt.Y)
	}
	return (xmax - xmin) + (ymax - ymin)
}
