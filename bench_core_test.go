package perftrack

import "testing"

// End-to-end members of the BenchmarkCore suite: the full tracking
// pipeline on the largest catalog studies. WRF is the heaviest frame pair
// (36864 bursts over 2 frames), Gromacs-evolution the longest sequence
// (20 frames). `make bench-core` records these in BENCH_core.json.

func BenchmarkCoreTrackWRF(b *testing.B) {
	p := prepare(b, "WRF")
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res = p.trackOnce(b)
	}
	b.StopTimer()
	b.ReportMetric(res.Coverage, "coverage")
}

func BenchmarkCoreTrackEvolution(b *testing.B) {
	p := prepare(b, "Gromacs-evolution")
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res = p.trackOnce(b)
	}
	b.StopTimer()
	b.ReportMetric(res.Coverage, "coverage")
}

func BenchmarkCoreBuildFramesWRF(b *testing.B) {
	p := prepare(b, "WRF")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.buildFrames(b)
	}
}
