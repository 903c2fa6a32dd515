// Kernel micro-benchmarks for the primal hot path: sparse matrix-vector
// products, dot products, the IC(0) preconditioner, full system assembly
// and HPWL evaluation, each at 10k and 100k variables on a representative
// synthetic netlist. Run with
//
//	go test ./internal/sparse -bench BenchmarkKernels -benchmem
//
// and vary the worker pool with par.SetThreads (or GOMAXPROCS) to measure
// parallel scaling; results are bitwise identical at any thread count.
package sparse_test

import (
	"fmt"
	"testing"

	"complx/internal/gen"
	"complx/internal/netlist"
	"complx/internal/netmodel"
	"complx/internal/par"
	"complx/internal/sparse"
)

// benchSizes are the variable counts exercised by every kernel benchmark.
var benchSizes = []int{10_000, 100_000}

// benchNetlists caches one synthetic design per size so repeated benchmarks
// don't regenerate it.
var benchNetlists = map[int]*netlist.Netlist{}

func benchNetlist(b *testing.B, n int) *netlist.Netlist {
	if nl, ok := benchNetlists[n]; ok {
		return nl
	}
	nl, err := gen.Generate(gen.Spec{
		Name:     fmt.Sprintf("bench%d", n),
		NumCells: n,
		Seed:     7,
	})
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	benchNetlists[n] = nl
	return nl
}

// benchSystem assembles the x-dimension B2B system of the benchmark design.
func benchSystem(b *testing.B, n int) netmodel.System {
	nl := benchNetlist(b, n)
	sx, _ := netmodel.NewAssembler(nl, netmodel.B2B, 0).Assemble()
	return sx
}

func BenchmarkKernelsMulVec(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sys := benchSystem(b, n)
			x := make([]float64, len(sys.B))
			dst := make([]float64, len(sys.B))
			for i := range x {
				x[i] = float64(i%17) - 8
			}
			b.SetBytes(int64(len(sys.A.Val)) * 12) // 8B val + 4B col per nnz
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.A.MulVec(dst, x)
			}
		})
	}
}

func BenchmarkKernelsDot(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = float64(i%13) * 0.25
				y[i] = float64(i%7) - 3
			}
			b.SetBytes(int64(n) * 16)
			b.ReportAllocs()
			b.ResetTimer()
			var s float64
			for i := 0; i < b.N; i++ {
				s += sparse.Dot(x, y)
			}
			_ = s
		})
	}
}

func BenchmarkKernelsAssembly(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nl := benchNetlist(b, n)
			asm := netmodel.NewAssembler(nl, netmodel.B2B, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				asm.Assemble()
			}
		})
	}
}

func BenchmarkKernelsHPWL(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			nl := benchNetlist(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			var s float64
			for i := 0; i < b.N; i++ {
				s += netmodel.HPWL(nl)
			}
			_ = s
		})
	}
}

// BenchmarkKernelsCG runs 30 PCG iterations per op, unbound and with the
// caller bound to a par.Limit as a placement job is. The bound case pays
// the thread-budget lookups the unbound one skips; its budget equals the
// pool size, so both run at the same parallelism.
func BenchmarkKernelsCG(b *testing.B) {
	for _, n := range benchSizes {
		for _, bound := range []bool{false, true} {
			name := fmt.Sprintf("n=%d", n)
			if bound {
				name += "/limit"
			}
			b.Run(name, func(b *testing.B) {
				sys := benchSystem(b, n)
				x := make([]float64, len(sys.B))
				var ws sparse.CGWorkspace
				run := func() {
					for i := 0; i < b.N; i++ {
						for j := range x {
							x[j] = 0
						}
						if _, err := sparse.SolvePCGWS(sys.A, x, sys.B, sparse.CGOptions{MaxIter: 30}, &ws); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				if bound {
					par.With(par.NewLimit(par.Threads()), run)
				} else {
					run()
				}
			})
		}
	}
}

// BenchmarkKernelsIC0 times the IC(0) preconditioner on the benchmark
// systems: Setup (factor and transpose) and Apply (forward and backward
// gathers) separately.
func BenchmarkKernelsIC0(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("setup/n=%d", n), func(b *testing.B) {
			sys := benchSystem(b, n)
			var f sparse.IC0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := f.Setup(sys.A); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("apply/n=%d", n), func(b *testing.B) {
			sys := benchSystem(b, n)
			var f sparse.IC0
			if err := f.Setup(sys.A); err != nil {
				b.Fatal(err)
			}
			z := make([]float64, len(sys.B))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Apply(z, sys.B)
			}
		})
	}
}
