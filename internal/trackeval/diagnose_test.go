package trackeval

import (
	"context"
	"strings"
	"testing"

	"perftrack/internal/core"
)

// TestDiagnosisCorpusAllSeeds: every planted cause must be recovered,
// at model-corroborated confidence, for every pinned seed.
func TestDiagnosisCorpusAllSeeds(t *testing.T) {
	cfg := DefaultConfig()
	for _, seed := range PinnedSeeds() {
		scores, err := EvaluateDiagnosisCorpus(seed, cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(scores) != 5 {
			t.Fatalf("seed %d: %d diagnosis scenarios, want 5", seed, len(scores))
		}
		for _, s := range scores {
			if !s.Hit {
				t.Errorf("seed %d: %s: planted %q, diagnosed %q (%s)",
					seed, s.Name, s.Planted, s.Diagnosed, s.Evidence)
			}
		}
	}
}

func diagResult(t *testing.T, name string, seed uint64) (*core.Result, DiagScenario) {
	t.Helper()
	cfg := DefaultConfig()
	for _, ds := range DiagnosisCorpus(seed) {
		if !strings.HasPrefix(ds.Name, name+"@") {
			continue
		}
		res, err := core.Analyze(context.Background(), ds.Traces, 0, cfg)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		return res, ds
	}
	t.Fatalf("no diagnosis scenario named %s", name)
	return nil, DiagScenario{}
}

func causeOf(diags []Diagnosis, c Cause) (Diagnosis, bool) {
	for _, d := range diags {
		if d.Cause == c {
			return d, true
		}
	}
	return Diagnosis{}, false
}

func TestDiagnoseCompilerEffectCorroborated(t *testing.T) {
	res, _ := diagResult(t, "compiler", 1)
	d, ok := causeOf(Diagnose(res), CauseCompilerEffect)
	if !ok {
		t.Fatalf("compiler effect not diagnosed: %+v", Diagnose(res))
	}
	if d.Confidence < 0.9 {
		t.Errorf("confidence = %v, want >= 0.9 (the xlf factors match the model)", d.Confidence)
	}
	for _, want := range []string{"gfortran", "xlf", "instructions", "IPC"} {
		if !strings.Contains(d.Evidence, want) {
			t.Errorf("evidence misses %q: %s", want, d.Evidence)
		}
	}
}

func TestDiagnoseCacheCliffNamesLevel(t *testing.T) {
	res, _ := diagResult(t, "cachecliff", 1)
	d, ok := causeOf(Diagnose(res), CauseCacheCliff)
	if !ok {
		t.Fatal("cache cliff not diagnosed")
	}
	if d.Confidence < 0.9 {
		t.Errorf("confidence = %v, want >= 0.9 (penalty model agrees)", d.Confidence)
	}
	if !strings.Contains(d.Evidence, "L1") {
		t.Errorf("evidence should name the overflowed level, got: %s", d.Evidence)
	}
}

func TestDiagnoseContentionKnee(t *testing.T) {
	res, _ := diagResult(t, "contention", 1)
	d, ok := causeOf(Diagnose(res), CauseContentionKnee)
	if !ok {
		t.Fatal("contention knee not diagnosed")
	}
	if d.Confidence < 0.9 {
		t.Errorf("confidence = %v, want >= 0.9 (bandwidth demand corroborates)", d.Confidence)
	}
	if !strings.Contains(d.Evidence, "packing grows 1→12") {
		t.Errorf("evidence should state the packing growth, got: %s", d.Evidence)
	}
}

func TestDiagnoseImbalanceFlagsPlantedRank(t *testing.T) {
	res, ds := diagResult(t, "imbalance", 1)
	d, ok := causeOf(Diagnose(res), CauseLoadImbalance)
	if !ok {
		t.Fatal("load imbalance not diagnosed")
	}
	if !containsInt(d.AnomalousRanks, ds.AnomalousRank) {
		t.Errorf("anomalous ranks %v miss the planted rank %d", d.AnomalousRanks, ds.AnomalousRank)
	}
	if len(d.AnomalousRanks) != 1 {
		t.Errorf("anomalous ranks %v, want exactly the planted one", d.AnomalousRanks)
	}
}

func TestDiagnoseSteadyControlStaysQuiet(t *testing.T) {
	res, _ := diagResult(t, "steady", 1)
	for _, d := range Diagnose(res) {
		if d.Cause != CauseSteady {
			t.Errorf("false positive on the steady control: %+v", d)
		}
		if len(d.AnomalousRanks) != 0 {
			t.Errorf("steady control flagged ranks %v", d.AnomalousRanks)
		}
	}
}
