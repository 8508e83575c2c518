package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

// triPhases yields three well-separated clusters per frame, so a
// single-cluster collapse elsewhere in the series is detectable.
func triPhases() []phaseDef {
	return []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 0.6, Instr: 4e6, Stack: stackR("b", 2)},
		{IPC: 0.25, Instr: 6e5, Stack: stackR("c", 3)},
	}
}

// deadTrace is what a crashed experiment leaves behind: metadata, no
// bursts.
func deadTrace(label string, ranks int) *trace.Trace {
	return &trace.Trace{Meta: trace.Metadata{App: "synthetic", Label: label, Ranks: ranks}}
}

func TestQuarantineCorruptBursts(t *testing.T) {
	tr := mkTrace("x", 4, 4, simplePhases())
	// Corrupt four bursts four different ways.
	tr.Bursts[0].Counters[metrics.CtrL1DMisses] = math.NaN()
	tr.Bursts[1].Counters = metrics.CounterVector{} // dead PAPI read
	tr.Bursts[2].DurationNS = -5
	tr.Bursts[3].Task = 99 // outside Ranks=4
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr, mkTrace("y", 4, 4, simplePhases())}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := frames[0]
	if f.Quarantined != 4 {
		t.Errorf("quarantined = %d, want 4 (%v)", f.Quarantined, f.QuarantinedBy)
	}
	for _, reason := range []string{"nan-counter", "zero-counter", "negative-duration", "task-out-of-range"} {
		if f.QuarantinedBy[reason] != 1 {
			t.Errorf("QuarantinedBy[%s] = %d, want 1", reason, f.QuarantinedBy[reason])
		}
	}
	if f.Degraded {
		t.Errorf("frame with 4/%d corrupt bursts should not be degraded: %s", len(tr.Bursts), f.DegradedReason)
	}
	if frames[1].Quarantined != 0 || frames[1].QuarantinedBy != nil {
		t.Errorf("clean frame reports quarantine: %d %v", frames[1].Quarantined, frames[1].QuarantinedBy)
	}
	res, err := NewTracker(testConfig()).TrackContext(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1 {
		t.Errorf("coverage = %v after quarantine, want 1", res.Coverage)
	}
	d := res.Diagnostics
	if d.BurstsQuarantined != 4 || d.Clean() {
		t.Errorf("diagnostics: %+v", d)
	}
	if s := d.Summary(); !strings.Contains(s, "quarantined 4 bursts") {
		t.Errorf("summary: %q", s)
	}
}

func TestCleanRunDiagnosticsClean(t *testing.T) {
	res, err := buildAndTrack(testConfig(),
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Diagnostics.Clean() {
		t.Errorf("clean study reports diagnostics: %s", res.Diagnostics.Summary())
	}
	if res.Diagnostics.Summary() != "clean" {
		t.Errorf("summary: %q", res.Diagnostics.Summary())
	}
}

func TestBridgeOverDeadExperiment(t *testing.T) {
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{
		mkTrace("x", 4, 4, simplePhases()),
		deadTrace("dead", 4),
		mkTrace("z", 4, 4, simplePhases()),
	}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !frames[1].Degraded {
		t.Fatal("empty middle frame not marked degraded")
	}
	if frames[1].DegradedReason != "no bursts after quarantine and filtering" {
		t.Errorf("reason: %q", frames[1].DegradedReason)
	}
	res, err := NewTracker(testConfig()).TrackContext(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	// One pair, bridging frame 0 directly to frame 2.
	if len(res.Pairs) != 1 || res.Pairs[0].From != 0 || res.Pairs[0].To != 2 {
		t.Fatalf("pairs: %+v", res.Pairs)
	}
	d := res.Diagnostics
	if d.FramesDegraded != 1 || d.FramesBridged != 1 {
		t.Errorf("diagnostics: %+v", d)
	}
	if len(d.Bridges) != 1 || d.Bridges[0] != [2]int{0, 2} {
		t.Errorf("bridges: %v", d.Bridges)
	}
	// The two phases still span the healthy frames with full coverage.
	if res.OptimalK != 2 || res.SpanningCount != 2 || res.Coverage != 1 {
		t.Errorf("optimalK=%d spanning=%d coverage=%v", res.OptimalK, res.SpanningCount, res.Coverage)
	}
	for p := 1; p <= 2; p++ {
		reg := res.RegionByPhase(p)
		if reg == nil {
			t.Fatalf("phase %d untracked", p)
		}
		if !reg.Spanning {
			t.Errorf("phase %d region not spanning despite bridge", p)
		}
		if len(reg.Members[1]) != 0 {
			t.Errorf("phase %d region has members in the degraded frame: %v", p, reg.Members[1])
		}
	}
	if s := d.Summary(); !strings.Contains(s, "bridged 1 frame(s) (0→2)") {
		t.Errorf("summary: %q", s)
	}
}

func TestCollapsedFrameBridged(t *testing.T) {
	// The middle experiment's bursts all land in one spot: clustering
	// collapses to a single object while its neighbours resolve three.
	collapsed := []phaseDef{
		{IPC: 0.8, Instr: 5e6, Stack: stackR("a", 1)},
		{IPC: 0.8, Instr: 5e6, Stack: stackR("b", 2)},
		{IPC: 0.8, Instr: 5e6, Stack: stackR("c", 3)},
	}
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{
		mkTrace("x", 4, 4, triPhases()),
		mkTrace("flat", 4, 4, collapsed),
		mkTrace("z", 4, 4, triPhases()),
	}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !frames[1].Degraded || frames[1].DegradedReason != "clustering collapsed to a single object" {
		t.Fatalf("middle frame: degraded=%v reason=%q (clusters=%d)",
			frames[1].Degraded, frames[1].DegradedReason, frames[1].NumClusters)
	}
	res, err := NewTracker(testConfig()).TrackContext(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics.FramesBridged != 1 {
		t.Errorf("diagnostics: %+v", res.Diagnostics)
	}
	if res.OptimalK != 3 || res.SpanningCount != 3 {
		t.Errorf("optimalK=%d spanning=%d", res.OptimalK, res.SpanningCount)
	}
}

func TestLowResolutionSeriesNotCollapsed(t *testing.T) {
	// A genuine one-cluster study (max clusters in the series < 3) must
	// keep its frames healthy: that is structure, not damage.
	single := []phaseDef{{IPC: 1.0, Instr: 8e6, Stack: stackR("a", 1)}}
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, single),
	}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if f.Degraded {
			t.Errorf("frame %d degraded in a low-resolution series: %s", i, f.DegradedReason)
		}
	}
}

func TestAllDegradedIsError(t *testing.T) {
	_, err := BuildFramesContext(context.Background(), []*trace.Trace{
		deadTrace("a", 4),
		deadTrace("b", 4),
	}, testConfig())
	if err == nil {
		t.Fatal("all-degraded sequence accepted")
	}
	if !strings.Contains(err.Error(), "degraded") {
		t.Errorf("error: %v", err)
	}
}

func TestExportCarriesDiagnostics(t *testing.T) {
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{
		mkTrace("x", 4, 4, simplePhases()),
		deadTrace("dead", 4),
		mkTrace("z", 4, 4, simplePhases()),
	}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewTracker(testConfig()).TrackContext(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	exp := res.Export(nil)
	if exp.Diagnostics.FramesBridged != 1 {
		t.Errorf("export diagnostics: %+v", exp.Diagnostics)
	}
	if !exp.Frames[1].Degraded || exp.Frames[1].DegradedReason == "" {
		t.Errorf("export frame 1: %+v", exp.Frames[1])
	}
}
