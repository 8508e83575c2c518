package trace_test

import (
	"fmt"
	"testing"

	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

var hashSink [32]byte

// BenchmarkTraceHashSequence hashes a sequence shaped like a trackd
// jobs-large job: 6 frames of 32 ranks × 40 iterations × 4 phases
// (5,120 bursts each), the fingerprint every submission computes.
func BenchmarkTraceHashSequence(b *testing.B) {
	ts := make([]*trace.Trace, 6)
	for i := range ts {
		ts[i] = oracle.GenTraces(uint64(40+i), fmt.Sprintf("large-f%d", i), 32, 40, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = trace.HashSequence(ts)
	}
}
