package cluster

import (
	"math/rand/v2"
	"testing"
)

// The core microbenchmark suite (BenchmarkCore*) measures the hot
// analysis kernels on synthetic frames shaped like the catalog studies:
// a handful of dense gaussian blobs in the normalised unit square plus a
// sprinkle of background noise. `make bench-core` regenerates
// BENCH_core.json from these, and `make bench-compare` gates regressions
// against the committed baseline.

// benchPoints builds n points in dims dimensions: 8 blobs of tight
// gaussian spread plus 5% uniform noise, deterministic under the seed.
func benchPoints(n, dims int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0xbe7c))
	centres := make([][]float64, 8)
	for c := range centres {
		centres[c] = make([]float64, dims)
		for d := range centres[c] {
			centres[c][d] = 0.1 + 0.8*rng.Float64()
		}
	}
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, dims)
		if rng.Float64() < 0.05 {
			for d := range p {
				p[d] = rng.Float64()
			}
		} else {
			c := centres[rng.IntN(len(centres))]
			for d := range p {
				p[d] = c[d] + 0.02*rng.NormFloat64()
			}
		}
		pts[i] = p
	}
	return pts
}

// clumpPoints builds n 2-D points in 4 clumps of 0.02 × 0.003, the shape
// of a frame trackd serves: every clump is narrower than the production
// eps of 0.07, so each member's neighbourhood is its whole clump. Points
// cycle through the clumps, as bursts cycle through an SPMD trace's
// phases.
func clumpPoints(n int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0xc1a3))
	var centres [4][2]float64
	for c := range centres {
		centres[c] = [2]float64{0.1 + 0.8*float64(c)/3, 0.1 + 0.8*rng.Float64()}
	}
	pts := make([][]float64, n)
	for i := range pts {
		c := centres[i%len(centres)]
		pts[i] = []float64{c[0] + 0.02*(rng.Float64()-0.5), c[1] + 0.003*(rng.Float64()-0.5)}
	}
	return pts
}

func BenchmarkCoreClusterDBSCAN(b *testing.B) {
	pts := benchPoints(5000, 2, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var labels []int
	for i := 0; i < b.N; i++ {
		labels = DBSCAN(pts, 0.03, 8)
	}
	b.StopTimer()
	n := 0
	for _, l := range labels {
		if l > n {
			n = l
		}
	}
	b.ReportMetric(float64(n), "clusters")
}

func BenchmarkCoreClusterDBSCAN4D(b *testing.B) {
	pts := benchPoints(3000, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, 0.08, 8)
	}
}

// BenchmarkCoreClusterDBSCANClumped measures DBSCAN on a frame shaped
// like a trackd job's: 5,120 points in 4 clumps narrower than eps.
func BenchmarkCoreClusterDBSCANClumped(b *testing.B) {
	pts := clumpPoints(5120, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, 0.07, 5)
	}
}

func BenchmarkCoreClusterRun(b *testing.B) {
	pts := benchPoints(5000, 2, 3)
	weights := make([]float64, len(pts))
	rng := rand.New(rand.NewPCG(9, 9))
	for i := range weights {
		weights[i] = 1 + 1000*rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(pts, weights, Config{Eps: 0.03, MinPts: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreNNNearest measures one full displacement-style sweep:
// every query point classified to its nearest indexed point.
func BenchmarkCoreNNNearest(b *testing.B) {
	pts := benchPoints(5000, 2, 4)
	queries := benchPoints(5000, 2, 5)
	nn := NewNN(pts, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			nn.Nearest(q)
		}
	}
}

func BenchmarkCoreNNBuild(b *testing.B) {
	pts := benchPoints(5000, 2, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewNN(pts, 0.05)
	}
}
