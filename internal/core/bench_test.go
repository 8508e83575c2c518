package core

import (
	"context"
	"fmt"
	"testing"

	"perftrack/internal/cluster"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// benchMatrix keeps benchmarked results live.
var benchMatrix *Matrix

// BenchmarkCoreDisplacementLarge times the 10 displacement matrices (both
// directions of 5 consecutive pairs) of one job shaped like trackd's
// jobs-large workload: 6 frames of 32 ranks × 40 iterations × 4 phases
// (5,120 bursts each) under the upload configuration.
func BenchmarkCoreDisplacementLarge(b *testing.B) {
	cfg := Config{Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002}}
	traces := make([]*trace.Trace, 6)
	for f := range traces {
		traces[f] = oracle.GenTraces(1_000+uint64(f), fmt.Sprintf("large-f%d", f), 32, 40, 4)
	}
	frames, err := BuildFramesContext(context.Background(), traces, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 1; f < len(frames); f++ {
			benchMatrix = Displacement(frames[f-1], frames[f], cfg)
			benchMatrix = Displacement(frames[f], frames[f-1], cfg)
		}
	}
}
