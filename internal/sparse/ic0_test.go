package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// mergeIC0 is the reference IC(0): a separate pass for the diagonal, a
// two-pointer merge of rows i and j for each factor entry, and a
// column-scatter backward sweep. IC0 must reproduce it bit for bit.
type mergeIC0 struct {
	n         int
	rowPtr    []int32
	col       []int32
	val       []float64
	d         []float64
	fallbacks int // rows whose pivot fell back to the guarded diagonal
}

func (f *mergeIC0) setup(a *CSR) error {
	n := a.N
	f.n = n
	f.rowPtr = make([]int32, n+1)
	f.d = make([]float64, n)
	aDiag := make([]float64, n)
	a.Diag(aDiag)
	f.col, f.val = nil, nil
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if int(a.Col[k]) >= i {
				break
			}
			f.col = append(f.col, a.Col[k])
			f.val = append(f.val, a.Val[k])
		}
		f.rowPtr[i+1] = int32(len(f.col))
	}
	for i := 0; i < n; i++ {
		ri0, ri1 := f.rowPtr[i], f.rowPtr[i+1]
		for kk := ri0; kk < ri1; kk++ {
			j := int(f.col[kk])
			s := f.val[kk]
			pi, pj := ri0, f.rowPtr[j]
			rj1 := f.rowPtr[j+1]
			for pi < kk && pj < rj1 {
				ci, cj := f.col[pi], f.col[pj]
				switch {
				case ci == cj:
					s -= f.val[pi] * f.val[pj]
					pi++
					pj++
				case ci < cj:
					pi++
				default:
					pj++
				}
			}
			f.val[kk] = s / f.d[j]
		}
		s := aDiag[i]
		for kk := ri0; kk < ri1; kk++ {
			s -= f.val[kk] * f.val[kk]
		}
		if !(s > 1e-8*aDiag[i] && s > 0) {
			f.fallbacks++
		}
		f.d[i] = pivot(s, aDiag[i])
		if !isFinite(f.d[i]) {
			return fmt.Errorf("sparse: IC(0) row %d: %w", i, ErrNotFinite)
		}
	}
	return nil
}

func (f *mergeIC0) apply(z, r []float64) {
	n := f.n
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := r[i]
		for kk := f.rowPtr[i]; kk < f.rowPtr[i+1]; kk++ {
			s -= f.val[kk] * y[f.col[kk]]
		}
		y[i] = s / f.d[i]
	}
	copy(z[:n], y[:n])
	for i := n - 1; i >= 0; i-- {
		zi := z[i] / f.d[i]
		z[i] = zi
		for kk := f.rowPtr[i]; kk < f.rowPtr[i+1]; kk++ {
			z[f.col[kk]] -= f.val[kk] * zi
		}
	}
}

// ic0Pattern is a random symmetric system on n variables: every ninth row
// is empty, row n/2 is a hub coupled to well over 64 others (so both its
// factor row and its factor column are long), every fifth row
// has a diagonal too weak for its couplings (so its pivot falls back), and
// some springs have negative weight, so the matrix is not an M-matrix.
func ic0Pattern(rng *rand.Rand, n int) *CSR {
	b := NewBuilder(n)
	live := func(i int) bool { return i%9 != 0 }
	for i := 0; i < n; i++ {
		if !live(i) {
			continue
		}
		d := 1 + 4*rng.Float64()
		if i%5 == 0 {
			d = 1e-3 * rng.Float64()
		}
		b.AddDiag(i, d)
		for k := rng.Intn(5); k > 0; k-- {
			if j := rng.Intn(n); live(j) && j != i {
				w := rng.Float64() * math.Ldexp(1, rng.Intn(8)-4)
				if rng.Intn(6) == 0 {
					w = -w
				}
				b.AddSym(i, j, w)
			}
		}
	}
	if hub := n / 2; live(hub) {
		for k := 0; k < 150; k++ {
			if j := rng.Intn(n); live(j) && j != hub {
				b.AddSym(hub, j, 0.25*rng.Float64())
			}
		}
	}
	return b.Build()
}

// TestIC0MatchesMergeReference checks IC0's Setup and Apply bit for bit
// against the merge-based reference on random patterns at 1, 2 and 8
// workers, reusing one IC0 across matrices of changing size.
func TestIC0MatchesMergeReference(t *testing.T) {
	withThreads(t, func(threads int) {
		rng := rand.New(rand.NewSource(int64(7 + threads)))
		var f IC0
		fallbacks, hubs := 0, 0
		for trial := 0; trial < 15; trial++ {
			n := []int{1, 2, 40, 300, 3000}[trial%5]
			a := ic0Pattern(rng, n)
			if hub := n / 2; a.RowPtr[hub+1]-a.RowPtr[hub] > 64 {
				hubs++
			}
			var ref mergeIC0
			wantErr := ref.setup(a)
			gotErr := f.Setup(a)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("threads=%d n=%d: Setup error %v, reference %v", threads, n, gotErr, wantErr)
			}
			fallbacks += ref.fallbacks
			for i := range ref.d {
				if math.Float64bits(f.d[i]) != math.Float64bits(ref.d[i]) {
					t.Fatalf("threads=%d n=%d: d[%d] = %v, reference %v", threads, n, i, f.d[i], ref.d[i])
				}
			}
			for k := range ref.val {
				if f.col[k] != ref.col[k] || math.Float64bits(f.val[k]) != math.Float64bits(ref.val[k]) {
					t.Fatalf("threads=%d n=%d: factor entry %d differs from the reference", threads, n, k)
				}
			}
			for rep := 0; rep < 2; rep++ {
				r := randVec(rng, n)
				got, want := make([]float64, n), make([]float64, n)
				f.Apply(got, r)
				ref.apply(want, r)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("threads=%d n=%d: Apply z[%d] = %v, reference %v", threads, n, i, got[i], want[i])
					}
				}
			}
		}
		if fallbacks == 0 || hubs == 0 {
			t.Fatalf("threads=%d: patterns reached %d pivot fallbacks and %d hub rows; want both", threads, fallbacks, hubs)
		}
	})
}

// TestIC0NotFiniteMatchesReference checks that an infinite diagonal stops
// Setup at the same row as the reference.
func TestIC0NotFiniteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := ic0Pattern(rng, 200)
	for k := a.RowPtr[150]; k < a.RowPtr[151]; k++ {
		if a.Col[k] == 150 {
			a.Val[k] = math.Inf(1)
		}
	}
	var ref mergeIC0
	var f IC0
	wantErr, gotErr := ref.setup(a), f.Setup(a)
	if wantErr == nil || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("Setup error %v, reference %v", gotErr, wantErr)
	}
}

// TestIC0SetupReportsNaN: a NaN in the matrix stops Setup at the row whose
// pivot it reaches, with ErrNotFinite, instead of being mapped to the
// pivot's finite fallback.
func TestIC0SetupReportsNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := ic0Pattern(rng, 200)
	if a.RowPtr[150] == a.RowPtr[151] {
		t.Fatal("row 150 of the pattern is empty")
	}
	a.Val[a.RowPtr[150]] = math.NaN()
	var f IC0
	err := f.Setup(a)
	if !errors.Is(err, ErrNotFinite) || !strings.Contains(fmt.Sprint(err), "row 150:") {
		t.Fatalf("Setup error %v, want ErrNotFinite at row 150", err)
	}
}
