// Package lse provides the log-sum-exp smoothed wirelength (paper §S1,
// Ruehli et al.) and a Polak–Ribière nonlinear Conjugate Gradient minimizer,
// so the ComPLx Lagrangian can be instantiated with a non-quadratic
// interconnect model: Φ_LSE(x, y) + λ Σ γ_i·smoothabs(distance to anchor).
//
// The smoothed wirelength for a net e and smoothing parameter γ is
//
//	γ·log Σ_k exp(x_k/γ) + γ·log Σ_k exp(−x_k/γ)   (+ same in y)
//
// which over-approximates the HPWL and converges to it as γ → 0. The
// anchor penalty uses the β-regularized absolute value √(d²+β²) (paper §S1).
package lse

import (
	"context"
	"math"

	"complx/internal/geom"
	"complx/internal/netlist"
)

// Objective is the nonlinear placement objective over the movable cells of
// a netlist. X/Y variables are movable cell centers in Movables order.
type Objective struct {
	NL *netlist.Netlist
	// Gamma is the LSE smoothing parameter (in core units). Typical: 1% of
	// core width.
	Gamma float64
	// Anchors and Lambda add the ComPLx penalty term when non-nil
	// (per-movable, Movables order).
	Anchors []geom.Point
	Lambda  []float64
	// Beta is the smooth-abs regularization for the penalty; defaults to
	// Gamma when zero.
	Beta float64

	varOf []int
}

// NewObjective builds an objective for nl. gamma <= 0 defaults to 1% of the
// core width.
func NewObjective(nl *netlist.Netlist, gamma float64) *Objective {
	if gamma <= 0 {
		gamma = 0.01 * nl.Core.Width()
	}
	o := &Objective{NL: nl, Gamma: gamma}
	o.varOf = make([]int, len(nl.Cells))
	for i := range o.varOf {
		o.varOf[i] = -1
	}
	for k, i := range nl.Movables() {
		o.varOf[i] = k
	}
	return o
}

func (o *Objective) beta() float64 {
	if o.Beta > 0 {
		return o.Beta
	}
	return o.Gamma
}

// pinXY returns the pin position given candidate variable vectors.
func (o *Objective) pinXY(p int, xs, ys []float64) (px, py float64) {
	pin := &o.NL.Pins[p]
	v := o.varOf[pin.Cell]
	if v < 0 {
		pt := o.NL.PinPosition(p)
		return pt.X, pt.Y
	}
	return xs[v] + pin.DX, ys[v] + pin.DY
}

// Value evaluates the objective at (xs, ys).
func (o *Objective) Value(xs, ys []float64) float64 {
	g := o.Gamma
	var total float64
	for ni := range o.NL.Nets {
		net := &o.NL.Nets[ni]
		if len(net.Pins) < 2 {
			continue
		}
		total += net.Weight * (o.netLSE(net, xs, ys, true, g) + o.netLSE(net, xs, ys, false, g))
	}
	total += o.penaltyValue(xs, ys)
	return total
}

// netLSE returns lse+(v) + lse−(v) for one dimension of one net.
func (o *Objective) netLSE(net *netlist.Net, xs, ys []float64, isX bool, g float64) float64 {
	maxV, minV := math.Inf(-1), math.Inf(1)
	for _, p := range net.Pins {
		px, py := o.pinXY(p, xs, ys)
		v := px
		if !isX {
			v = py
		}
		maxV = math.Max(maxV, v)
		minV = math.Min(minV, v)
	}
	var sPos, sNeg float64
	for _, p := range net.Pins {
		px, py := o.pinXY(p, xs, ys)
		v := px
		if !isX {
			v = py
		}
		sPos += math.Exp((v - maxV) / g)
		sNeg += math.Exp((minV - v) / g)
	}
	return g*math.Log(sPos) + maxV + g*math.Log(sNeg) - minV
}

func (o *Objective) penaltyValue(xs, ys []float64) float64 {
	if o.Anchors == nil {
		return 0
	}
	b := o.beta()
	var total float64
	for k := range o.Anchors {
		lam := o.Lambda[k]
		if lam <= 0 {
			continue
		}
		dx := xs[k] - o.Anchors[k].X
		dy := ys[k] - o.Anchors[k].Y
		total += lam * (math.Sqrt(dx*dx+b*b) - b + math.Sqrt(dy*dy+b*b) - b)
	}
	return total
}

// Gradient writes the objective gradient at (xs, ys) into (gx, gy).
func (o *Objective) Gradient(xs, ys, gx, gy []float64) {
	for i := range gx {
		gx[i] = 0
		gy[i] = 0
	}
	g := o.Gamma
	for ni := range o.NL.Nets {
		net := &o.NL.Nets[ni]
		if len(net.Pins) < 2 {
			continue
		}
		o.netGrad(net, xs, ys, gx, true, g)
		o.netGrad(net, xs, ys, gy, false, g)
	}
	if o.Anchors != nil {
		b := o.beta()
		for k := range o.Anchors {
			lam := o.Lambda[k]
			if lam <= 0 {
				continue
			}
			dx := xs[k] - o.Anchors[k].X
			dy := ys[k] - o.Anchors[k].Y
			gx[k] += lam * dx / math.Sqrt(dx*dx+b*b)
			gy[k] += lam * dy / math.Sqrt(dy*dy+b*b)
		}
	}
}

func (o *Objective) netGrad(net *netlist.Net, xs, ys, grad []float64, isX bool, g float64) {
	maxV, minV := math.Inf(-1), math.Inf(1)
	for _, p := range net.Pins {
		px, py := o.pinXY(p, xs, ys)
		v := px
		if !isX {
			v = py
		}
		maxV = math.Max(maxV, v)
		minV = math.Min(minV, v)
	}
	var sPos, sNeg float64
	for _, p := range net.Pins {
		px, py := o.pinXY(p, xs, ys)
		v := px
		if !isX {
			v = py
		}
		sPos += math.Exp((v - maxV) / g)
		sNeg += math.Exp((minV - v) / g)
	}
	for _, p := range net.Pins {
		pin := &o.NL.Pins[p]
		k := o.varOf[pin.Cell]
		if k < 0 {
			continue
		}
		px, py := o.pinXY(p, xs, ys)
		v := px
		if !isX {
			v = py
		}
		d := net.Weight * (math.Exp((v-maxV)/g)/sPos - math.Exp((minV-v)/g)/sNeg)
		grad[k] += d
	}
}

// MinimizeOptions tunes the nonlinear CG solver.
type MinimizeOptions struct {
	MaxIter int     // default 100
	GradTol float64 // stop when ‖g‖∞ < GradTol; default 1e-4
}

// MinimizeResult reports the solve outcome.
type MinimizeResult struct {
	Iterations int
	Value      float64
	GradNorm   float64
}

// minimize runs Polak–Ribière nonlinear CG with Armijo backtracking from
// the given starting point, updating xs/ys in place. ctx is polled once per
// outer iteration; on cancellation xs/ys hold the best iterate reached so
// far (every accepted step is monotone non-increasing in the objective) and
// the returned error wraps ctx.Err().
func minimize(ctx context.Context, o *Objective, xs, ys []float64, opt MinimizeOptions) (MinimizeResult, error) {
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100
	}
	if opt.GradTol <= 0 {
		opt.GradTol = 1e-4
	}
	n := len(xs)
	gx, gy := make([]float64, n), make([]float64, n)
	pgx, pgy := make([]float64, n), make([]float64, n)
	dx, dy := make([]float64, n), make([]float64, n)
	tx, ty := make([]float64, n), make([]float64, n)

	f := o.Value(xs, ys)
	o.Gradient(xs, ys, gx, gy)
	for i := 0; i < n; i++ {
		dx[i], dy[i] = -gx[i], -gy[i]
	}
	res := MinimizeResult{Value: f}
	step := 1.0
	for it := 0; it < opt.MaxIter; it++ {
		if err := ctx.Err(); err != nil {
			res.Value = f
			return res, err
		}
		gInf := 0.0
		for i := 0; i < n; i++ {
			gInf = math.Max(gInf, math.Max(math.Abs(gx[i]), math.Abs(gy[i])))
		}
		res.GradNorm = gInf
		res.Iterations = it
		if gInf < opt.GradTol {
			break
		}
		// Directional derivative; reset to steepest descent if not a
		// descent direction.
		var dd float64
		for i := 0; i < n; i++ {
			dd += gx[i]*dx[i] + gy[i]*dy[i]
		}
		if dd >= 0 {
			for i := 0; i < n; i++ {
				dx[i], dy[i] = -gx[i], -gy[i]
			}
			dd = 0
			for i := 0; i < n; i++ {
				dd += gx[i]*dx[i] + gy[i]*dy[i]
			}
		}
		// Armijo backtracking.
		alpha := step
		const c1 = 1e-4
		ok := false
		for tries := 0; tries < 40; tries++ {
			for i := 0; i < n; i++ {
				tx[i] = xs[i] + alpha*dx[i]
				ty[i] = ys[i] + alpha*dy[i]
			}
			ft := o.Value(tx, ty)
			if ft <= f+c1*alpha*dd {
				ok = true
				break
			}
			alpha /= 2
		}
		if !ok {
			break // no progress possible
		}
		copy(xs, tx)
		copy(ys, ty)
		f = o.Value(xs, ys)
		step = alpha * 2 // mild step growth for the next iteration

		copy(pgx, gx)
		copy(pgy, gy)
		o.Gradient(xs, ys, gx, gy)
		// Polak–Ribière+ beta.
		var num, den float64
		for i := 0; i < n; i++ {
			num += gx[i]*(gx[i]-pgx[i]) + gy[i]*(gy[i]-pgy[i])
			den += pgx[i]*pgx[i] + pgy[i]*pgy[i]
		}
		beta := 0.0
		if den > 0 {
			beta = math.Max(0, num/den)
		}
		for i := 0; i < n; i++ {
			dx[i] = -gx[i] + beta*dx[i]
			dy[i] = -gy[i] + beta*dy[i]
		}
	}
	res.Value = f
	return res, nil
}

// Solve minimizes f over nl's movable-cell centers (Movables order),
// starting from the current placement, and writes the optimized centers
// back clamped to the core. ctx is polled once per outer nonlinear-CG
// iteration. On cancellation the best iterate reached so far is still
// written back (it is usable as a best-so-far placement) and the returned
// error wraps ctx.Err().
func Solve(ctx context.Context, nl *netlist.Netlist, f *Objective, opt MinimizeOptions) (MinimizeResult, error) {
	mov := nl.Movables()
	xs := make([]float64, len(mov))
	ys := make([]float64, len(mov))
	for k, i := range mov {
		c := nl.Cells[i].Center()
		xs[k] = c.X
		ys[k] = c.Y
	}
	res, err := minimize(ctx, f, xs, ys, opt)
	for k, i := range mov {
		c := &nl.Cells[i]
		hw, hh := c.W/2, c.H/2
		p := geom.Point{
			X: geom.Clamp(xs[k], nl.Core.XMin+hw, nl.Core.XMax-hw),
			Y: geom.Clamp(ys[k], nl.Core.YMin+hh, nl.Core.YMax-hh),
		}
		c.SetCenter(p)
	}
	return res, err
}
