package trajectory

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"perftrack/internal/cluster"
	"perftrack/internal/core"
	"perftrack/internal/machine"
	"perftrack/internal/metrics"
	"perftrack/internal/mpisim"
	"perftrack/internal/trace"
)

// simApp models a small SPMD code with nPhases well-separated behaviours.
// slowPhase (when >= 0) gets its IPC multiplied by slowIPC — the injected
// performance bug the detector must find.
func simApp(nPhases, slowPhase int, slowIPC float64) mpisim.AppSpec {
	arch := machine.MinoTauro()
	phases := make([]mpisim.PhaseSpec, nPhases)
	for i := range phases {
		instr := 5e6 * pow(1.7, i)
		ipc := 0.6 + 0.14*float64(i%5)
		if i == slowPhase {
			ipc *= slowIPC
		}
		phases[i] = mpisim.PhaseSpec{
			Name:      fmt.Sprintf("phase%d", i+1),
			Stack:     trace.CallstackRef{Function: fmt.Sprintf("phase%d", i+1), File: "app.c", Line: 100 + i},
			Instr:     func(mpisim.Scenario) float64 { return instr },
			IPCFactor: ipc / arch.BaseIPC,
			MemFrac:   0.02,
		}
	}
	return mpisim.AppSpec{Name: "trajsim", Phases: phases}
}

func pow(base float64, exp int) float64 {
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// analyzeRun simulates one "stored run" (a 2-frame mini study of app),
// runs the full clustering+tracking pipeline, and returns its export
// document parsed into a trajectory Run.
func analyzeRun(t *testing.T, app mpisim.AppSpec, runIdx int) Run {
	t.Helper()
	var traces []*trace.Trace
	for f := 0; f < 2; f++ {
		tr, err := mpisim.Simulate(app, mpisim.Scenario{
			Label:      fmt.Sprintf("run%d-frame%d", runIdx, f),
			Ranks:      8,
			Arch:       machine.MinoTauro(),
			Compiler:   machine.GFortran(),
			Iterations: 4,
			Seed:       uint64(1000*runIdx + f + 1),
		})
		if err != nil {
			t.Fatalf("simulating run %d frame %d: %v", runIdx, f, err)
		}
		traces = append(traces, tr)
	}
	cfg := core.Config{
		Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002},
		Metrics: metrics.DefaultSpace(),
	}
	res, err := core.Analyze(context.Background(), traces, 0, cfg)
	if err != nil {
		t.Fatalf("analysing run %d: %v", runIdx, err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, cfg.Metrics); err != nil {
		t.Fatalf("exporting run %d: %v", runIdx, err)
	}
	run, err := ParseRun(buf.Bytes(), fmt.Sprintf("key-%d", runIdx), fmt.Sprintf("run-%d", runIdx), int64(runIdx))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestInjectedSlowdownIsTheOnlyRegression is the acceptance contract of
// the trajectory engine: across a series of 7 stored runs of the same
// 4-behaviour application, where the last run degrades one behaviour's
// IPC by 30%, the regression report must flag exactly that trajectory as
// regressed — and nothing else as notable.
func TestInjectedSlowdownIsTheOnlyRegression(t *testing.T) {
	const nPhases, nRuns = 4, 7
	const slowPhase = 1 // phase2: mid instruction count, distinct IPC
	var runs []Run
	for r := 0; r < nRuns; r++ {
		app := simApp(nPhases, -1, 1)
		if r == nRuns-1 {
			app = simApp(nPhases, slowPhase, 0.70)
		}
		runs = append(runs, analyzeRun(t, app, r))
	}

	trajs := Chain(runs, LinkConfig{})
	if len(trajs) < nPhases {
		t.Fatalf("chained %d trajectories, want >= %d", len(trajs), nPhases)
	}
	full := 0
	for _, tr := range trajs {
		if len(tr.Points) == nRuns {
			full++
		}
	}
	if full != nPhases {
		t.Fatalf("%d trajectories span all runs, want %d", full, nPhases)
	}

	verdicts := Detect(runs, trajs, DetectorConfig{})
	var notable []Verdict
	for _, v := range verdicts {
		if v.Notable() {
			notable = append(notable, v)
		}
	}
	if len(notable) != 1 {
		t.Fatalf("got %d notable verdicts, want exactly 1: %+v", len(notable), notable)
	}
	v := notable[0]
	if v.Kind != KindRegressed {
		t.Fatalf("verdict %s, want regressed: %+v", v.Kind, v)
	}
	if v.RelChange > -0.15 || v.RelChange < -0.45 {
		t.Fatalf("regression magnitude %.2f, want around -0.30", v.RelChange)
	}
	// The flagged trajectory must be the slowed behaviour: its baseline
	// IPC matches phase2's configured IPC (0.74), not any other phase's.
	wantIPC := 0.6 + 0.14*float64(slowPhase%5)
	if v.Baseline < wantIPC*0.9 || v.Baseline > wantIPC*1.1 {
		t.Fatalf("flagged trajectory baseline IPC %.3f, want ~%.2f (the injected phase)", v.Baseline, wantIPC)
	}
}

// TestParseRunShares: the parsed object states carry sane share
// accounting (shares sum to ~1 over the run's regions).
func TestParseRunShares(t *testing.T) {
	run := analyzeRun(t, simApp(4, -1, 1), 0)
	if len(run.Objects) < 4 {
		t.Fatalf("parsed %d objects, want >= 4", len(run.Objects))
	}
	var durSum, burstSum float64
	for _, o := range run.Objects {
		if o.DurationShare < 0 || o.DurationShare > 1 {
			t.Fatalf("object %d duration share %g out of range", o.Region, o.DurationShare)
		}
		durSum += o.DurationShare
		burstSum += o.BurstShare
		if len(o.Metrics) == 0 {
			t.Fatalf("object %d has no metric position", o.Region)
		}
	}
	if durSum < 0.99 || durSum > 1.01 {
		t.Fatalf("duration shares sum to %g, want ~1", durSum)
	}
	if burstSum < 0.9 || burstSum > 1.01 {
		t.Fatalf("burst shares sum to %g, want ~1", burstSum)
	}
}
