package oracle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// BenchmarkDecideSingleBlock decides graphs whose one block spans every
// node: the case where Decide runs left–right on g itself.
func BenchmarkDecideSingleBlock(b *testing.B) {
	for _, tc := range []struct {
		name string
		gen  func(int, *rand.Rand) *graph.Graph
	}{
		{"maximal-planar", graph.MaximalPlanar},
		{"outerplanar", graph.Outerplanar},
	} {
		for _, n := range []int{10_000, 100_000} {
			g := tc.gen(n, rand.New(rand.NewSource(1)))
			b.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !IsPlanar(g) {
						b.Fatal("must be planar")
					}
				}
			})
		}
	}
}
