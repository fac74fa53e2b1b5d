package pq

import (
	"fmt"
	"math/rand"
	"testing"

	"dart/internal/mat"
)

func benchEncoder(b *testing.B, enc Encoder) {
	rng := rand.New(rand.NewSource(1))
	x := mat.New(512, enc.C()*enc.SubDim()).Randn(rng, 1)
	enc.Fit(x)
	idx := make([]int, enc.C())
	row := x.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeRow(row, idx)
	}
}

// BenchmarkEncodeKMeans measures exact nearest-prototype encoding (all K
// distances of a subspace per kernel call). D16_C2_K128 is the shape the
// configurator picks for the served hierarchy; every case is 0 allocs/op.
func BenchmarkEncodeKMeans(b *testing.B) {
	for _, s := range []struct{ d, c, k int }{{32, 4, 128}, {16, 2, 128}, {64, 2, 128}} {
		b.Run(fmt.Sprintf("D%d_C%d_K%d", s.d, s.c, s.k), func(b *testing.B) {
			benchEncoder(b, NewKMeansEncoder(s.d, s.c, s.k, rand.New(rand.NewSource(2))))
		})
	}
}

// BenchmarkEncodeLSH measures sign-bit hashing (log K hyperplanes per
// subspace) — the encoder the paper's latency model assumes.
func BenchmarkEncodeLSH(b *testing.B) {
	benchEncoder(b, NewLSHEncoder(32, 4, 128, rand.New(rand.NewSource(2))))
}

func BenchmarkDotTableQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := mat.New(512, 32).Randn(rng, 1)
	enc := NewKMeansEncoder(32, 4, 16, rng)
	enc.Fit(x)
	w := make([]float64, 32)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	table := NewDotTable(enc, w)
	row := x.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Query(row)
	}
}

func BenchmarkKMeansFit(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := mat.New(512, 8).Randn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(x.Data, 512, 8, 16, 10, rng)
	}
}
