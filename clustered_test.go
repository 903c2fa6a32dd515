package complx

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// clusteredHash digests a run's final placement, its per-iteration history
// (numeric fields and CG counts, no timings) and its global totals
// bit for bit.
func clusteredHash(nl *Netlist, res *Result) string {
	h := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	puti := func(v int) { put(float64(v)) }
	putb := func(v bool) {
		if v {
			puti(1)
		} else {
			puti(0)
		}
	}
	for i := range nl.Cells {
		put(nl.Cells[i].X)
		put(nl.Cells[i].Y)
	}
	puti(res.GlobalIterations)
	putb(res.Converged)
	put(res.FinalLambda)
	put(res.DualityGap)
	put(res.HPWL)
	put(res.WHPWL)
	put(res.ScaledHPWL)
	puti(res.CGIterations)
	sc := res.SelfConsistency
	puti(sc.Total)
	puti(sc.Consistent)
	puti(sc.Inconsistent)
	puti(sc.PremiseFailed)
	puti(len(res.History))
	for _, st := range res.History {
		puti(st.Iter)
		puti(st.Level)
		put(st.Lambda)
		put(st.Phi)
		put(st.PhiUpper)
		put(st.Pi)
		put(st.L)
		put(st.Overflow)
		puti(st.GridNX)
		puti(st.CGIters)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestClusteredGolden pins the two-level Clustered flow bit for bit for
// both primal-dual placers: the coarse pass over the clustered netlist, the
// expansion and the short fine pass, with the merged totals and History.
func TestClusteredGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		alg     Algorithm
		maxIter int
		want    string
	}{
		{"complx", AlgComPLx, 0, "3dbf57c3f6de8c8d6497f6a1c5a6d6164f01d8b835bf0822fbcaf72a487ab4d7"},
		{"simpl", AlgSimPL, 0, "ef8b38a619e342708f9c6317ff3f9a55f641fcf0c0a40f915325ca6c597206d5"},
		// A budget under the fine pass's cap of 25 bounds both passes.
		{"complx-max12", AlgComPLx, 12, "8bd50006da404f48030e441dc3f14db62cb62ba28dc23ba41c45965c56573089"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nl, err := Generate(smallSpec("clg", 700, 53))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Place(nl, Options{
				Algorithm: tc.alg, MaxIterations: tc.maxIter, Clustered: true, SkipLegalize: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := clusteredHash(nl, res); got != tc.want {
				t.Errorf("hash %s, want %s (HPWL %v, %d iterations)", got, tc.want, res.HPWL, res.GlobalIterations)
			}
		})
	}
}
