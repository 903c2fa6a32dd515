package experiments

import (
	"complx"
	"fmt"
	"io"
	"math"
	"time"

	"complx/internal/gen"
)

// RuntimePoint is one (size, wall-clock) sample for one placer.
type RuntimePoint struct {
	Cells   int
	Seconds float64
}

// RuntimeResult holds the §S3 runtime-scaling study: global placement
// wall-clock against design size, with fitted log-log slopes. The paper
// estimates ComPLx near-linear, O(n·(log n)^p) per iteration with a
// size-independent iteration count, versus Θ(n^1.38) for FastPlace; the
// FastPlace figure is quoted, and SimPL is the measured yardstick.
type RuntimeResult struct {
	ComPLx, SimPL []RuntimePoint
	// Exponents are the least-squares slopes of log(time) vs log(n).
	ComPLxExponent, SimPLExponent float64
}

// RuntimeScaling measures global placement runtime across a geometric size
// sweep (paper §S3).
func RuntimeScaling(w io.Writer, cfg Config) (*RuntimeResult, error) {
	cfg.fill()
	base, _ := gen.ByName("adaptec1")
	sizes := []int{
		int(2000 * cfg.Scale * 4),
		int(4000 * cfg.Scale * 4),
		int(8000 * cfg.Scale * 4),
		int(16000 * cfg.Scale * 4),
	}
	res := &RuntimeResult{}
	for _, n := range sizes {
		if n < 200 {
			n = 200
		}
		spec := base
		spec.Name = fmt.Sprintf("scale%d", n)
		spec.NumCells = n
		spec.NumMacros = 0
		for _, alg := range []complx.Algorithm{complx.AlgComPLx, complx.AlgSimPL} {
			nl, err := fresh(spec)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := runFlow(nl, complx.Options{Algorithm: alg, SkipLegalize: true}); err != nil {
				return nil, fmt.Errorf("runtime %s/%d: %w", alg, n, err)
			}
			pt := RuntimePoint{Cells: n, Seconds: time.Since(start).Seconds()}
			if alg == complx.AlgComPLx {
				res.ComPLx = append(res.ComPLx, pt)
			} else {
				res.SimPL = append(res.SimPL, pt)
			}
		}
	}
	res.ComPLxExponent = fitExponent(res.ComPLx)
	res.SimPLExponent = fitExponent(res.SimPL)
	if w != nil {
		fmt.Fprintln(w, "S3: global placement runtime scaling (seconds)")
		fmt.Fprintf(w, "%8s %10s %10s\n", "cells", "ComPLx", "SimPL")
		for i := range res.ComPLx {
			fmt.Fprintf(w, "%8d %10.2f %10.2f\n",
				res.ComPLx[i].Cells, res.ComPLx[i].Seconds, res.SimPL[i].Seconds)
		}
		fmt.Fprintf(w, "fitted exponent: ComPLx n^%.2f, SimPL n^%.2f\n",
			res.ComPLxExponent, res.SimPLExponent)
		fmt.Fprintln(w, "(paper: ComPLx near-linear; FastPlace estimated Θ(n^1.38), quoted, not measured)")
	}
	return res, nil
}

// fitExponent computes the least-squares slope of log(seconds) vs log(n).
func fitExponent(pts []RuntimePoint) float64 {
	if len(pts) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(pts))
	for _, p := range pts {
		x := math.Log(float64(p.Cells))
		y := math.Log(math.Max(p.Seconds, 1e-6))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
