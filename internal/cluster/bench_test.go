package cluster

import (
	"testing"

	"complx/internal/gen"
)

// BenchmarkCoarsen builds the V-cycle's coarsening stack at its default
// settings (10,000 target cells, at most 6 levels) on the bigblue3 analog
// ×2: 24K cells, three levels.
func BenchmarkCoarsen(b *testing.B) {
	spec, _ := gen.ByName("bigblue3")
	nl, err := gen.Generate(gen.Scaled(spec, 2))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		stack, err := Coarsen(nl, 10000, 6)
		if err != nil {
			b.Fatal(err)
		}
		if len(stack) != 2 {
			b.Fatalf("%d coarse levels, want 2", len(stack))
		}
	}
}
