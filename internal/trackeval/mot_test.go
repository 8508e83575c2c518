package trackeval

import (
	"context"
	"math"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/oracle"
)

// evalTracks runs the pipeline over a generated sequence and scores it.
func evalTracks(t *testing.T, cfg core.Config, seed uint64, tracks []oracle.PhaseTrack) (MOT, *core.Result) {
	t.Helper()
	traces := oracle.GenSequence(seed, "mot-test", 8, 2, tracks)
	res, err := core.Analyze(context.Background(), traces, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Score(res), res
}

func TestScorePerfectTracking(t *testing.T) {
	m, _ := evalTracks(t, DefaultConfig(), 7, []oracle.PhaseTrack{
		{ID: 1, IPC: constSeries(0.9, 6), Instr: constSeries(lvl0, 6)},
		{ID: 2, IPC: constSeries(1.8, 6), Instr: constSeries(lvl1, 6)},
		{ID: 3, IPC: constSeries(2.6, 6), Instr: constSeries(lvl2, 6)},
	})
	if m.GTTracks != 3 || m.ScoredFrames != 6 {
		t.Fatalf("gtTracks=%d scoredFrames=%d, want 3 and 6", m.GTTracks, m.ScoredFrames)
	}
	for name, v := range map[string]float64{
		"purity":   m.Purity,
		"coverage": m.Coverage,
		"mota":     m.MOTA,
		"ari":      m.MeanARI,
	} {
		if v != 1 {
			t.Errorf("%s = %v, want exactly 1 on a trivially separable corpus", name, v)
		}
	}
	if m.IDSwitches != 0 || m.Fragmentation != 0 || m.MissRate != 0 || m.MismatchRate != 0 {
		t.Errorf("unexpected mistracking: %+v", m)
	}
	if m.GTMass <= 0 {
		t.Errorf("gtMass = %v, want positive", m.GTMass)
	}
}

func TestScoreCountsUnclusteredMassAsMissed(t *testing.T) {
	// Track 4 carries ~0.02% of the duration: below MinClusterWeight its
	// cluster is dropped, so its mass must land in MissRate, not vanish.
	m, _ := evalTracks(t, DefaultConfig(), 11, []oracle.PhaseTrack{
		{ID: 1, IPC: constSeries(0.9, 6), Instr: constSeries(lvl0, 6)},
		{ID: 2, IPC: constSeries(1.8, 6), Instr: constSeries(lvl1, 6)},
		{ID: 3, IPC: constSeries(2.6, 6), Instr: constSeries(lvl2, 6)},
		{ID: 4, IPC: constSeries(1.4, 6), Instr: constSeries(1e4, 6)},
	})
	if m.GTTracks != 4 {
		t.Fatalf("gtTracks = %d, want 4", m.GTTracks)
	}
	if m.MissRate <= 0 {
		t.Errorf("missRate = %v, want > 0 for a sub-weight track", m.MissRate)
	}
	if m.Coverage >= 1 || m.MOTA >= 1 {
		t.Errorf("coverage=%v mota=%v, want both < 1", m.Coverage, m.MOTA)
	}
	// The missed track is tiny, so the composite stays near-perfect.
	if m.MOTA < 0.99 {
		t.Errorf("mota = %v, want >= 0.99 (only ~0.02%% of mass missed)", m.MOTA)
	}
}

func TestScoreDegradedFramesExcluded(t *testing.T) {
	spec := CorpusSpec{Seed: 3}.withDefaults()
	var dead Scenario
	for _, sc := range Corpus(spec) {
		if sc.Fault == "counter-zero" && sc.Severity == 1 {
			dead = sc
		}
	}
	if dead.Name == "" {
		t.Fatal("corpus lost its dead-frame scenario")
	}
	ss, err := EvaluateScenario(dead, DefaultConfig())
	if err != nil {
		t.Fatalf("evaluating: %v", err)
	}
	if ss.DegradedFrames != 1 {
		t.Fatalf("degradedFrames = %d, want 1", ss.DegradedFrames)
	}
	if ss.ScoredFrames != corpusFrames-1 {
		t.Errorf("scoredFrames = %d, want %d (dead frame excluded)", ss.ScoredFrames, corpusFrames-1)
	}
	if ss.MOTA != 1 || ss.Coverage != 1 {
		t.Errorf("mota=%v coverage=%v, want 1: the tracker bridges the dead frame", ss.MOTA, ss.Coverage)
	}
}

func TestScoreDetectsIDSwitches(t *testing.T) {
	// Ablated tracker (no displacement) on callstack-free merge/split:
	// re-acquiring tracks after the merge without geometric evidence
	// must cost identity — exactly what the MOT metrics exist to see.
	cfg := DefaultConfig()
	cfg.DisableDisplacement = true
	m, _ := evalTracks(t, cfg, 5, noStack(mergeSplitTracks(8)))
	if m.IDSwitches == 0 && m.MOTA == 1 {
		t.Errorf("ablated tracker scored perfect on nostack-mergesplit (mota=%v idsw=%d); the metric lost its teeth", m.MOTA, m.IDSwitches)
	}
	if m.MOTA >= 1 {
		t.Errorf("mota = %v, want < 1 under ablation", m.MOTA)
	}
}

func TestScoreEmptyResult(t *testing.T) {
	var m MOT
	if m != (MOT{}) {
		t.Fatal("zero MOT not zero")
	}
	got := Score(&core.Result{})
	if got.GTTracks != 0 || got.GTMass != 0 || got.MOTA != 0 {
		t.Errorf("Score(empty) = %+v, want zeros", got)
	}
}

func TestArgmaxRegionsDeterministicTies(t *testing.T) {
	mass := map[phaseRegion]float64{
		{1, 2}: 5, {1, 7}: 5, // exact tie: lower region id wins
		{2, 0}: 3, // fully missed phase still appears, matched to 0
	}
	got := argmaxRegions(mass)
	if got[1] != 2 {
		t.Errorf("tie broke to region %d, want 2", got[1])
	}
	if r, ok := got[2]; !ok || r != 0 {
		t.Errorf("missed phase mapped to %d (present %v), want 0", r, ok)
	}
}

func TestMOTARateArithmetic(t *testing.T) {
	m, _ := evalTracks(t, DefaultConfig(), 13, driftTracks(8))
	sum := 1 - m.MissRate - m.MismatchRate
	if m.IDSwitches == 0 && math.Abs(m.MOTA-sum) > 1e-12 {
		t.Errorf("mota = %v, want %v (1 - miss - mismatch with no switches)", m.MOTA, sum)
	}
}
