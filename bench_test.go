package perftrack

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation. Each benchmark regenerates the artefact — the rows
// or series the paper reports are printed once via b.Logf (visible with
// `go test -bench . -v`) — and measures the cost of the analysis stage
// that produces it (simulation happens outside the timed region, as the
// paper's tool also consumes pre-captured traces). Custom metrics report
// the scientific outcome: coverage, tracked regions, and the headline
// deltas of each study.

import (
	"context"
	"fmt"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/metrics"
)

// prepared bundles the untimed part of a study: its simulated traces.
type prepared struct {
	study  Study
	traces []*Trace
}

func prepare(b *testing.B, name string) prepared {
	b.Helper()
	st, err := CatalogStudy(name)
	if err != nil {
		b.Fatal(err)
	}
	traces, err := SimulateStudy(st)
	if err != nil {
		b.Fatal(err)
	}
	return prepared{study: st, traces: traces}
}

// trackOnce runs the timed pipeline once.
func (p prepared) trackOnce(b *testing.B) *Result {
	res, err := Track(p.traces, p.study.Track)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// buildFrames runs the frame build alone.
func (p prepared) buildFrames(b *testing.B) []*Frame {
	frames, err := core.BuildFramesContext(context.Background(), p.traces, p.study.Track)
	if err != nil {
		b.Fatal(err)
	}
	return frames
}

func benchTrack(b *testing.B, name string, report func(b *testing.B, res *Result)) {
	p := prepare(b, name)
	var res *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = p.trackOnce(b)
	}
	b.StopTimer()
	b.ReportMetric(res.Coverage, "coverage")
	b.ReportMetric(float64(res.SpanningCount), "regions")
	if report != nil {
		report(b, res)
	}
}

func deltaByPhase(b *testing.B, res *Result, phase int, m Metric) float64 {
	reg := res.RegionByPhase(phase)
	if reg == nil {
		b.Fatalf("phase %d untracked", phase)
	}
	rt, err := res.Trend(reg.ID, m)
	if err != nil {
		b.Fatal(err)
	}
	return rt.RelDeltaMean()
}

// BenchmarkFigure1 regenerates the WRF cluster structure (frame building
// and clustering only — the "input images").
func BenchmarkFigure1(b *testing.B) {
	p := prepare(b, "WRF")
	var frames []*Frame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames = p.buildFrames(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(frames[0].NumClusters), "clusters128")
	b.ReportMetric(float64(frames[1].NumClusters), "clusters256")
	b.Logf("WRF frames: %d clusters at 128 tasks, %d at 256", frames[0].NumClusters, frames[1].NumClusters)
}

// BenchmarkFigure3 regenerates the displacement correlation matrix.
func BenchmarkFigure3(b *testing.B) {
	p := prepare(b, "WRF")
	frames := p.buildFrames(b)
	cfg := p.study.Track
	var m *core.Matrix
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = core.Displacement(frames[0], frames[1], cfg)
	}
	b.StopTimer()
	b.Logf("displacement matrix:\n%s", m)
}

// BenchmarkFigure4 regenerates the SPMD alignment of the WRF frames.
func BenchmarkFigure4(b *testing.B) {
	p := prepare(b, "WRF")
	frames := p.buildFrames(b)
	var score float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al := core.FrameAlignment(frames[0], p.study.Track)
		score = al.SPMDScore()
	}
	b.StopTimer()
	b.ReportMetric(score, "spmdScore")
}

// BenchmarkTable1 regenerates the call-stack correlations.
func BenchmarkTable1(b *testing.B) {
	p := prepare(b, "WRF")
	frames := p.buildFrames(b)
	var n int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := core.StackTable(frames[0], frames[1])
		n = len(table)
	}
	b.StopTimer()
	b.ReportMetric(float64(n), "stackRefs")
}

// BenchmarkFigure5and6 regenerates the full WRF tracking (sequence
// refinement and renamed output frames).
func BenchmarkFigure5and6(b *testing.B) {
	benchTrack(b, "WRF", func(b *testing.B, res *Result) {
		b.Logf("WRF: %d tracked regions, coverage %.0f%%", res.SpanningCount, 100*res.Coverage)
	})
}

// BenchmarkFigure7 regenerates the WRF trend report.
func BenchmarkFigure7(b *testing.B) {
	benchTrack(b, "WRF", func(b *testing.B, res *Result) {
		d11 := deltaByPhase(b, res, 11, IPC)
		d4 := deltaByPhase(b, res, 4, IPC)
		b.ReportMetric(100*d11, "ipcDelta11_pct")
		b.ReportMetric(100*d4, "ipcDelta4_pct")
		b.Logf("Fig 7a: region(phase 11) IPC %+.1f%% (paper ~-20%%), region(phase 4) %+.1f%% (paper ~+5%%)",
			100*d11, 100*d4)
	})
}

// BenchmarkTable2 regenerates the whole summary of experiments.
func BenchmarkTable2(b *testing.B) {
	names := []string{
		"Gadget", "QuantumESPRESSO", "WRF", "Gromacs", "CGPOP",
		"NAS BT", "HydroC", "MR-Genesis", "NAS FT", "Gromacs-evolution",
	}
	ps := make([]prepared, len(names))
	for i, n := range names {
		ps[i] = prepare(b, n)
	}
	var covSum float64
	var rows []string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		covSum = 0
		rows = rows[:0]
		for _, p := range ps {
			res := p.trackOnce(b)
			covSum += res.Coverage
			rows = append(rows, fmt.Sprintf("%-18s images=%2d regions=%2d coverage=%3.0f%%",
				p.study.Name, len(res.Frames), res.SpanningCount, 100*res.Coverage))
		}
	}
	b.StopTimer()
	b.ReportMetric(covSum/float64(len(ps)), "avgCoverage")
	for _, r := range rows {
		b.Log(r)
	}
}

// BenchmarkTable3 regenerates the CGPOP performance table.
func BenchmarkTable3(b *testing.B) {
	benchTrack(b, "CGPOP", func(b *testing.B, res *Result) {
		for phase := 1; phase <= 2; phase++ {
			reg := res.RegionByPhase(phase)
			ipc, _ := res.Trend(reg.ID, IPC)
			ins, _ := res.Trend(reg.ID, Instructions)
			b.Logf("Region %d: IPC %v instructions %v", phase, ipc.Means(), ins.Means())
		}
		ipc1, _ := res.Trend(res.RegionByPhase(1).ID, IPC)
		b.ReportMetric(ipc1.Means()[0], "ipcMNgfortran")
		b.ReportMetric(ipc1.Means()[1], "ipcMNxlf")
	})
}

// BenchmarkFigure8 regenerates the CGPOP input frames.
func BenchmarkFigure8(b *testing.B) {
	p := prepare(b, "CGPOP")
	var frames []*Frame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames = p.buildFrames(b)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(frames)), "frames")
}

// BenchmarkFigure9and10 regenerates the NAS BT study.
func BenchmarkFigure9and10(b *testing.B) {
	benchTrack(b, "NAS BT", func(b *testing.B, res *Result) {
		reg := res.RegionByPhase(1)
		ipc, _ := res.Trend(reg.ID, IPC)
		m := ipc.Means()
		drop := 100 * (m[0] - m[1]) / m[0]
		b.ReportMetric(drop, "dropWA_pct")
		b.Logf("Fig 10a: region(phase 1) IPC %v — W->A drop %.0f%% (paper: 40-65%%)", m, drop)
	})
}

// BenchmarkFigure11 regenerates the MR-Genesis node-sharing study.
func BenchmarkFigure11(b *testing.B) {
	benchTrack(b, "MR-Genesis", func(b *testing.B, res *Result) {
		reg := res.RegionByPhase(1)
		ipc, _ := res.Trend(reg.ID, IPC)
		m := ipc.Means()
		total := 100 * (m[0] - m[len(m)-1]) / m[0]
		b.ReportMetric(total, "totalDegradation_pct")
		b.Logf("Fig 11a: IPC 1..12 tasks/node %v — total %.1f%% (paper: 17.5%%)", m, total)
	})
}

// BenchmarkFigure12 regenerates the HydroC block-size study.
func BenchmarkFigure12(b *testing.B) {
	benchTrack(b, "HydroC", func(b *testing.B, res *Result) {
		reg := res.Regions[0]
		ipc, _ := res.Trend(reg.ID, IPC)
		l1, _ := res.Trend(reg.ID, metrics.L1DMisses)
		m, lm := ipc.Means(), l1.Means()
		dip := 100 * (m[7] - m[8]) / m[7]
		jump := 100 * (lm[8] - lm[7]) / lm[7]
		b.ReportMetric(dip, "ipcDip_pct")
		b.ReportMetric(jump, "l1Jump_pct")
		b.Logf("Fig 12: IPC dip at block 64->128 %.1f%%, L1 miss jump %.0f%% (paper: ~40%%)", dip, jump)
	})
}

// BenchmarkAblation measures the coverage contribution of each evaluator
// on the NAS BT long-jump study (the design-choice ablation DESIGN.md
// calls out).
func BenchmarkAblation(b *testing.B) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"Full", func(*Config) {}},
		{"NoCallstack", func(c *Config) { c.DisableCallstack = true }},
		{"NoSPMD", func(c *Config) { c.DisableSPMD = true }},
		{"NoSequence", func(c *Config) { c.DisableSequence = true }},
		{"DisplacementOnly", func(c *Config) {
			c.DisableCallstack = true
			c.DisableSPMD = true
			c.DisableSequence = true
		}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			p := prepare(b, "NAS BT")
			cfg := p.study.Track
			tc.mutate(&cfg)
			var res *Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Track(p.traces, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(res.Coverage, "coverage")
			b.ReportMetric(float64(res.SpanningCount), "regions")
		})
	}
}

// BenchmarkClusterer compares the density-based clusterer against the
// partitional baseline on the WRF frames — the design choice the paper's
// reference tooling (González et al.) makes in favour of DBSCAN.
func BenchmarkClusterer(b *testing.B) {
	for _, algo := range []string{"dbscan", "kmeans"} {
		algo := algo
		b.Run(algo, func(b *testing.B) {
			p := prepare(b, "WRF")
			cfg := p.study.Track
			cfg.Cluster.Algorithm = algo
			cfg.Cluster.MaxClusters = 16
			var res *Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				res, err = Track(p.traces, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(res.Coverage, "coverage")
			b.ReportMetric(float64(res.SpanningCount), "regions")
			b.ReportMetric(float64(res.Frames[0].NumClusters), "clusters128")
		})
	}
}

// BenchmarkPipelineScaling measures how the tracking cost scales with the
// number of bursts per frame (the tool-performance dimension the paper
// leaves implicit).
func BenchmarkPipelineScaling(b *testing.B) {
	for _, iters := range []int{4, 8, 16} {
		iters := iters
		b.Run(fmt.Sprintf("iters=%d", iters), func(b *testing.B) {
			st, err := CatalogStudy("CGPOP")
			if err != nil {
				b.Fatal(err)
			}
			for i := range st.Runs {
				st.Runs[i].Scenario.Iterations = iters
			}
			traces, err := SimulateStudy(st)
			if err != nil {
				b.Fatal(err)
			}
			bursts := 0
			for _, tr := range traces {
				bursts += len(tr.Bursts)
			}
			b.ReportMetric(float64(bursts), "bursts")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Track(traces, st.Track); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
