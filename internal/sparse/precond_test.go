package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// preconds constructs one fresh instance of every preconditioner kind.
func preconds(t *testing.T) []Preconditioner {
	t.Helper()
	out := make([]Preconditioner, 0, len(PrecondKinds))
	for _, kind := range PrecondKinds {
		p, err := NewPreconditioner(kind)
		if err != nil {
			t.Fatalf("NewPreconditioner(%q): %v", kind, err)
		}
		if p.Name() != kind {
			t.Fatalf("NewPreconditioner(%q).Name() = %q", kind, p.Name())
		}
		out = append(out, p)
	}
	return out
}

func TestNewPreconditionerUnknown(t *testing.T) {
	for _, kind := range []string{"cholesky", "mg"} {
		if _, err := NewPreconditioner(kind); err == nil {
			t.Fatalf("NewPreconditioner(%q): expected an error for an unknown preconditioner kind", kind)
		}
	}
}

// TestPreconditionedCGMatchesDenseSolver cross-checks PCG under every
// preconditioner against Gaussian elimination on random SPD systems (the
// dense_test.go oracle pattern).
func TestPreconditionedCGMatchesDenseSolver(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		bld := NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					w := rng.Float64()
					bld.AddSym(i, j, w)
					dense[i][i] += w
					dense[j][j] += w
					dense[i][j] -= w
					dense[j][i] -= w
				}
			}
			d := 0.5 + rng.Float64()
			bld.AddDiag(i, d)
			dense[i][i] += d
		}
		a := bld.Build()
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		want := denseSolve(dense, rhs)
		for _, p := range preconds(t) {
			if err := p.Setup(a); err != nil {
				t.Logf("%s: Setup: %v", p.Name(), err)
				return false
			}
			got := make([]float64, n)
			res, err := SolvePCG(a, got, rhs, CGOptions{Tol: 1e-12, MaxIter: 50 * n, Precond: p})
			if err != nil || !res.Converged {
				t.Logf("%s: err=%v converged=%v", p.Name(), err, res.Converged)
				return false
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
					t.Logf("%s: x[%d]=%g want %g", p.Name(), i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPrecondBitwiseAcrossThreads pins the 0-ULP thread-equivalence
// contract: Setup+Apply produce bit-identical output at 1, 2 and 8 workers,
// and so does a full PCG solve through each preconditioner.
func TestPrecondBitwiseAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randSPD(rng, 3000, 5)
	r := randVec(rng, 3000)
	for _, kind := range PrecondKinds {
		var wantZ, wantX []float64
		var wantIter int
		first := true
		withThreads(t, func(threads int) {
			p, err := NewPreconditioner(kind)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Setup(a); err != nil {
				t.Fatalf("%s threads=%d: Setup: %v", kind, threads, err)
			}
			z := make([]float64, a.N)
			p.Apply(z, r)
			x := make([]float64, a.N)
			res, err := SolvePCG(a, x, r, CGOptions{Tol: 1e-10, MaxIter: 200, Precond: p})
			if err != nil {
				t.Fatalf("%s threads=%d: %v", kind, threads, err)
			}
			if first {
				wantZ = append([]float64(nil), z...)
				wantX = append([]float64(nil), x...)
				wantIter = res.Iterations
				first = false
				return
			}
			if res.Iterations != wantIter {
				t.Fatalf("%s threads=%d: %d iterations, want %d", kind, threads, res.Iterations, wantIter)
			}
			for i := range z {
				if math.Float64bits(z[i]) != math.Float64bits(wantZ[i]) {
					t.Fatalf("%s threads=%d: Apply z[%d]=%x want %x", kind, threads, i, math.Float64bits(z[i]), math.Float64bits(wantZ[i]))
				}
				if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) {
					t.Fatalf("%s threads=%d: x[%d]=%x want %x", kind, threads, i, math.Float64bits(x[i]), math.Float64bits(wantX[i]))
				}
			}
		})
	}
}

// TestExplicitJacobiBitwiseEqualsDefault proves the extracted Jacobi
// implementation is behavior-identical to the built-in nil-Precond path
// (which itself is the pre-interface solver): same iterate sequence, bit
// for bit.
func TestExplicitJacobiBitwiseEqualsDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := randSPD(rng, 2000, 6)
	b := randVec(rng, 2000)

	xDefault := make([]float64, a.N)
	resDefault, err := SolvePCG(a, xDefault, b, CGOptions{Tol: 1e-10, MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	jac := &Jacobi{}
	if err := jac.Setup(a); err != nil {
		t.Fatal(err)
	}
	xJac := make([]float64, a.N)
	resJac, err := SolvePCG(a, xJac, b, CGOptions{Tol: 1e-10, MaxIter: 300, Precond: jac})
	if err != nil {
		t.Fatal(err)
	}
	if resJac.Iterations != resDefault.Iterations || math.Float64bits(resJac.Residual) != math.Float64bits(resDefault.Residual) {
		t.Fatalf("explicit Jacobi diverged from default: %+v vs %+v", resJac, resDefault)
	}
	for i := range xJac {
		if math.Float64bits(xJac[i]) != math.Float64bits(xDefault[i]) {
			t.Fatalf("x[%d]=%x want %x", i, math.Float64bits(xJac[i]), math.Float64bits(xDefault[i]))
		}
	}
}

// TestPrecondZeroDiagonalGuard is the zero-diagonal audit regression: a
// system with isolated variables (empty rows, matching the Jacobi floor of
// 1) must pass through every preconditioner without producing NaN/Inf, and
// the solve must still converge to the connected component's solution.
func TestPrecondZeroDiagonalGuard(t *testing.T) {
	// 8 variables: 0..3 form a well-conditioned SPD block, 4..7 are fully
	// isolated (no entries at all — their rows are empty and their
	// diagonal is zero).
	n := 8
	bld := NewBuilder(n)
	for i := 0; i < 4; i++ {
		bld.AddDiag(i, 2)
	}
	bld.AddSym(0, 1, 1)
	bld.AddSym(1, 2, 1)
	bld.AddSym(2, 3, 1)
	a := bld.Build()
	b := []float64{1, -2, 3, -4, 0, 0, 0, 0}

	dense := make([][]float64, 4)
	for i := range dense {
		dense[i] = make([]float64, 4)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			dense[i][j] = at(a, i, j)
		}
	}
	want := denseSolve(dense, b[:4])

	for _, p := range preconds(t) {
		if err := p.Setup(a); err != nil {
			t.Fatalf("%s: Setup: %v", p.Name(), err)
		}
		// The guard itself: applying to a vector with mass on the isolated
		// variables must pass them through finitely (Jacobi passes them
		// unchanged; all kinds must at least stay finite).
		r := []float64{1, 1, 1, 1, 5, -5, 2, -2}
		z := make([]float64, n)
		p.Apply(z, r)
		for i, v := range z {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: Apply produced non-finite z[%d]=%g on zero-diagonal system", p.Name(), i, v)
			}
		}
		for i := 4; i < 8; i++ {
			if math.Float64bits(z[i]) != math.Float64bits(r[i]) {
				t.Fatalf("%s: isolated variable %d not passed through: z=%g r=%g", p.Name(), i, z[i], r[i])
			}
		}
		x := make([]float64, n)
		res, err := SolvePCG(a, x, b, CGOptions{Tol: 1e-12, MaxIter: 500, Precond: p})
		if err != nil || !res.Converged {
			t.Fatalf("%s: solve on zero-diagonal system: err=%v res=%+v", p.Name(), err, res)
		}
		for i := 0; i < 4; i++ {
			if math.Abs(x[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("%s: x[%d]=%g want %g", p.Name(), i, x[i], want[i])
			}
		}
	}
}

// TestIC0ReducesIterations pins the point of the exercise: on a
// placement-like diagonally-dominant system, IC(0) must need substantially
// fewer CG iterations than Jacobi.
func TestIC0ReducesIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	// 2-D grid Laplacian + small diagonal shift: the sparsity and
	// conditioning structure of a quadratic placement system.
	side := 60
	n := side * side
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddDiag(i, 1e-3)
		x, y := i%side, i/side
		if x+1 < side {
			b.AddSym(i, i+1, 1)
			b.AddDiag(i, 1)
			b.AddDiag(i+1, 1)
			b.Add(i, i+1, -1)
			b.Add(i+1, i, -1)
		}
		if y+1 < side {
			b.AddDiag(i, 1)
			b.AddDiag(i+side, 1)
			b.Add(i, i+side, -1)
			b.Add(i+side, i, -1)
		}
	}
	a := b.Build()
	rhs := randVec(rng, n)

	solve := func(p Preconditioner) int {
		x := make([]float64, n)
		res, err := SolvePCG(a, x, rhs, CGOptions{Tol: 1e-8, MaxIter: 10 * n, Precond: p})
		if err != nil || !res.Converged {
			t.Fatalf("%v: err=%v res=%+v", p, err, res)
		}
		return res.Iterations
	}
	jac := &Jacobi{}
	if err := jac.Setup(a); err != nil {
		t.Fatal(err)
	}
	ic := &IC0{}
	if err := ic.Setup(a); err != nil {
		t.Fatal(err)
	}
	jacIters, icIters := solve(jac), solve(ic)
	if float64(icIters) > 0.75*float64(jacIters) {
		t.Fatalf("IC(0) took %d iterations vs Jacobi's %d; expected at least a 25%% reduction", icIters, jacIters)
	}
	t.Logf("jacobi=%d ic0=%d iterations", jacIters, icIters)
}
