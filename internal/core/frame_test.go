package core

import (
	"context"
	"math"
	"testing"

	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

func TestTransformSpace(t *testing.T) {
	ms := []metrics.Metric{metrics.IPC, metrics.Instructions}
	got := transformSpaceInto(make([]float64, 2), ms, []float64{1.5, 1e6}, 4)
	if got[0] != 1.5 {
		t.Errorf("IPC transformed: %v", got[0])
	}
	// Instructions: x ranks, then log10.
	want := math.Log10(4e6)
	if math.Abs(got[1]-want) > 1e-12 {
		t.Errorf("instructions transform = %v, want %v", got[1], want)
	}
	// Zero ranks behaves like 1.
	got = transformSpaceInto(make([]float64, 2), ms, []float64{1, 100}, 0)
	if got[1] != 2 {
		t.Errorf("rank default: %v", got[1])
	}
	// Non-positive values are clamped, not NaN.
	got = transformSpaceInto(make([]float64, 2), ms, []float64{1, 0}, 1)
	if math.IsNaN(got[1]) || math.IsInf(got[1], 0) {
		t.Errorf("zero instructions transform = %v", got[1])
	}
}

func TestBuildFramesBasic(t *testing.T) {
	phases := []phaseDef{
		{IPC: 1.0, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 0.5, Instr: 4e6, Stack: stackR("b", 2)},
	}
	tr := mkTrace("x", 4, 5, phases)
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := frames[0]
	if f.NumClusters != 2 {
		t.Fatalf("clusters = %d, want 2", f.NumClusters)
	}
	if len(f.Points) != 40 || len(f.Norm) != 40 || len(f.Labels) != 40 {
		t.Errorf("frame sizes: %d %d %d", len(f.Points), len(f.Norm), len(f.Labels))
	}
	// Cluster 1 is the heavier phase (1e7 instr at IPC 1.0 = 1e7 ns per
	// burst vs 8e6 ns).
	c1 := f.Cluster(1)
	if c1 == nil || c1.Size != 20 {
		t.Fatalf("cluster 1 = %+v", c1)
	}
	if len(c1.Stacks) != 1 {
		t.Errorf("cluster 1 stacks = %v", c1.Stacks)
	}
	if f.Cluster(0) != nil || f.Cluster(99) != nil {
		t.Error("out-of-range Cluster() should be nil")
	}
}

func TestBuildFramesEmptyInput(t *testing.T) {
	if _, err := BuildFramesContext(context.Background(), nil, testConfig()); err == nil {
		t.Error("no traces accepted")
	}
	empty := &trace.Trace{Meta: trace.Metadata{Label: "e"}}
	if _, err := BuildFramesContext(context.Background(), []*trace.Trace{empty}, testConfig()); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestBuildFramesMinDurationFilter(t *testing.T) {
	phases := []phaseDef{
		{IPC: 1.0, Instr: 1e7, Stack: stackR("big", 1)},
		{IPC: 1.0, Instr: 100, Stack: stackR("tiny", 2)}, // 100ns bursts
	}
	tr := mkTrace("x", 4, 5, phases)
	cfg := testConfig()
	cfg.MinBurstDurationNS = 1000
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(frames[0].Points); got != 20 {
		t.Errorf("filtered frame has %d bursts, want 20", got)
	}
}

func TestBuildFramesTopDurationFilter(t *testing.T) {
	phases := []phaseDef{
		{IPC: 1.0, Instr: 1e7, Stack: stackR("big", 1)},
		{IPC: 1.0, Instr: 1e4, Stack: stackR("small", 2)},
	}
	tr := mkTrace("x", 4, 5, phases)
	cfg := testConfig()
	cfg.TopDurationFrac = 0.9
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The small phase contributes ~0.1% of time: only long bursts stay.
	f := frames[0]
	if got := len(f.Points); got < 18 || got > 20 {
		t.Errorf("top-duration frame has %d bursts, want 18-20", got)
	}
	for _, b := range f.Trace.Bursts {
		if b.Phase != 1 {
			t.Errorf("short burst survived the top-duration cut: %+v", b)
		}
	}
}

func TestNormalizeSeriesRankWeighting(t *testing.T) {
	// Strong scaling: per-rank instructions halve at double ranks. After
	// rank weighting the normalised Y coordinates must coincide.
	mk := func(ranks int) *trace.Trace {
		return mkTrace("r", ranks, 4, []phaseDef{
			{IPC: 1.0, Instr: 1e8 / float64(ranks), Stack: stackR("a", 1)},
			{IPC: 0.5, Instr: 4e7 / float64(ranks), Stack: stackR("b", 2)},
		})
	}
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{mk(4), mk(8)}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c0 := frames[0].Cluster(1).Centroid
	c1 := frames[1].Cluster(1).Centroid
	if math.Abs(c0[1]-c1[1]) > 0.01 {
		t.Errorf("rank weighting failed: normalised Y %v vs %v", c0[1], c1[1])
	}
}

func TestNormalizeSeriesMinMax(t *testing.T) {
	phases := []phaseDef{
		{IPC: 0.5, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 1.5, Instr: 2e6, Stack: stackR("b", 2)},
	}
	tr := mkTrace("x", 4, 4, phases)
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range frames[0].Norm {
		for d, v := range q {
			if v < -1e-9 || v > 1+1e-9 {
				t.Fatalf("normalised value out of [0,1]: dim %d = %v", d, v)
			}
		}
	}
}

func TestClusteredDuration(t *testing.T) {
	phases := []phaseDef{{IPC: 1.0, Instr: 1e6, Stack: stackR("a", 1)}}
	tr := mkTrace("x", 2, 3, phases)
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := float64(6 * 1e6) // 6 bursts of 1e6 ns
	if got := frames[0].ClusteredDurationNS(); math.Abs(got-want) > 1 {
		t.Errorf("clustered duration = %v, want %v", got, want)
	}
}

// TestMetricOver checks the per-cluster aggregate a trend point reports:
// the duration-weighted mean and the plain total of a metric over every
// burst of the cluster. Aggregating each instance rather than trusting
// static profiles is the point the paper makes about multi-modal
// variability.
func TestMetricOver(t *testing.T) {
	phases := []phaseDef{
		{IPC: 2.0, Instr: 1e6, Stack: stackR("a", 1)},
		{IPC: 0.5, Instr: 9e6, Stack: stackR("b", 2)},
	}
	res, err := buildAndTrack(testConfig(), mkTrace("x", 2, 3, phases))
	if err != nil {
		t.Fatal(err)
	}
	pointOf := func(cluster int) TrendPoint {
		t.Helper()
		for _, reg := range res.Regions {
			if len(reg.Members[0]) == 1 && reg.Members[0][0] == cluster {
				rt, err := res.Trend(reg.ID, metrics.IPC)
				if err != nil {
					t.Fatal(err)
				}
				return rt.Points[0]
			}
		}
		t.Fatalf("no region holds exactly cluster %d", cluster)
		return TrendPoint{}
	}
	// Phase "b" is the heavier cluster by duration (18e6 cycles vs 0.5e6
	// -> cluster 1).
	p := pointOf(1)
	if math.Abs(p.Mean-0.5) > 1e-9 {
		t.Errorf("cluster 1 IPC = %v, want 0.5", p.Mean)
	}
	if math.Abs(p.Total-6*0.5) > 1e-9 {
		t.Errorf("cluster 1 IPC total = %v", p.Total)
	}
	if p = pointOf(2); math.Abs(p.Mean-2.0) > 1e-9 {
		t.Errorf("cluster 2 IPC = %v, want 2.0", p.Mean)
	}
	if _, err := res.Trend(17, metrics.IPC); err == nil {
		t.Error("trend of a missing region accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	bad := []Config{
		{Metrics: []metrics.Metric{{Name: "broken"}}},
		{MinCorrelation: 1.5},
		{SPMDThreshold: -0.1},
		{SequenceThreshold: 2},
		{TopDurationFrac: -1},
		{MinBurstDurationNS: -5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// BuildFramesContext propagates the validation error.
	tr := mkTrace("x", 2, 2, simplePhases())
	if _, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, Config{MinCorrelation: 2}); err == nil {
		t.Error("BuildFrames accepted an invalid config")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if len(cfg.Metrics) != 2 {
		t.Errorf("default metrics = %v", cfg.Metrics)
	}
	if cfg.MinCorrelation != 0.05 {
		t.Errorf("default MinCorrelation = %v", cfg.MinCorrelation)
	}
	if cfg.SPMDThreshold <= 0 || cfg.SPMDTaskSample <= 0 || cfg.SequenceThreshold <= 0 {
		t.Errorf("defaults missing: %+v", cfg)
	}
}
