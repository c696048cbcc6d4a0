package graphio

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// BenchmarkRead decodes a maximal planar graph (n=10^5, m≈3·10^5) in
// every format; SetBytes makes the MB/s column the decode throughput.
func BenchmarkRead(b *testing.B) {
	g := graph.MaximalPlanar(100_000, rand.New(rand.NewSource(1)))
	for _, f := range Formats() {
		var buf bytes.Buffer
		if err := Write(&buf, g, f); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(f.String(), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Read(bytes.NewReader(data), f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
