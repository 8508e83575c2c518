package apps

import (
	"context"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"perftrack/internal/machine"
	"perftrack/internal/mpisim"
)

func TestCatalogComplete(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("catalog size = %d, want the 10 studies of Table 2", len(all))
	}
	// Table 2 order and image counts.
	wantImages := map[string]int{
		"Gadget": 2, "QuantumESPRESSO": 2, "WRF": 2, "Gromacs": 3,
		"CGPOP": 4, "NAS BT": 4, "HydroC": 12, "MR-Genesis": 12,
		"NAS FT": 15, "Gromacs-evolution": 20,
	}
	seen := map[string]bool{}
	for _, st := range all {
		if seen[st.Name] {
			t.Errorf("duplicate study %q", st.Name)
		}
		seen[st.Name] = true
		if st.ExpectedImages != wantImages[st.Name] {
			t.Errorf("%s: ExpectedImages = %d, want %d", st.Name, st.ExpectedImages, wantImages[st.Name])
		}
		images := len(st.Runs)
		if st.Windows > 1 {
			images = st.Windows
		}
		if images != st.ExpectedImages {
			t.Errorf("%s: runs/windows produce %d images, expected %d", st.Name, images, st.ExpectedImages)
		}
		if st.ExpectedRegions <= 0 || st.ExpectedCoverage <= 0 || st.ExpectedCoverage > 1 {
			t.Errorf("%s: expectations missing: %d regions, %v coverage", st.Name, st.ExpectedRegions, st.ExpectedCoverage)
		}
		if len(st.ParamValues) != st.ExpectedImages {
			t.Errorf("%s: %d param values for %d images", st.Name, len(st.ParamValues), st.ExpectedImages)
		}
		if st.Description == "" || st.ParamName == "" {
			t.Errorf("%s: missing description or param name", st.Name)
		}
	}
}

func TestCatalogAppsValidate(t *testing.T) {
	for _, st := range All() {
		for i, run := range st.Runs {
			if err := run.App.Validate(); err != nil {
				t.Errorf("%s run %d app invalid: %v", st.Name, i, err)
			}
			if err := run.Scenario.Validate(); err != nil {
				t.Errorf("%s run %d scenario invalid: %v", st.Name, i, err)
			}
		}
	}
}

func TestByName(t *testing.T) {
	st, err := ByName("WRF")
	if err != nil || st.Name != "WRF" {
		t.Errorf("ByName(WRF) = %v, %v", st.Name, err)
	}
	if _, err := ByName("LINPACK"); err == nil {
		t.Error("unknown study accepted")
	}
	names := Names()
	if len(names) != 10 || names[0] != "Gadget" {
		t.Errorf("Names = %v", names)
	}
}

func TestCatalogStacksDistinguishPhases(t *testing.T) {
	// Within each app, phases that are meant to be distinct code must
	// carry some call-stack reference; phases may legitimately share one
	// (the paper's bimodal regions), but none may be empty.
	for _, st := range All() {
		for _, ph := range st.Runs[0].App.Phases {
			if ph.Stack.IsZero() {
				t.Errorf("%s: phase %s has no call-stack reference", st.Name, ph.Name)
			}
		}
	}
}

func TestHelperRankBimodal(t *testing.T) {
	v := rankBimodal(1, 2, 1.1, 0.9)
	rng := rand.New(rand.NewPCG(1, 1))
	sc := mpisim.Scenario{Ranks: 4}
	if got := v(sc, 0, 0, rng); got.IPCMul != 1.1 {
		t.Errorf("even rank mode = %v", got.IPCMul)
	}
	if got := v(sc, 1, 0, rng); got.IPCMul != 0.9 {
		t.Errorf("odd rank mode = %v", got.IPCMul)
	}
}

func TestHelperIterBimodal(t *testing.T) {
	v := iterBimodal(1.0, 0.8)
	rng := rand.New(rand.NewPCG(1, 1))
	sc := mpisim.Scenario{Ranks: 4}
	if got := v(sc, 0, 0, rng); got.IPCMul != 1.0 {
		t.Errorf("even iter = %v", got.IPCMul)
	}
	if got := v(sc, 0, 1, rng); got.IPCMul != 0.8 {
		t.Errorf("odd iter = %v", got.IPCMul)
	}
}

func TestHelperRankLinearImbalance(t *testing.T) {
	v := rankLinearImbalance(0.2)
	rng := rand.New(rand.NewPCG(1, 1))
	sc := mpisim.Scenario{Ranks: 5}
	lo := v(sc, 0, 0, rng).InstrMul
	hi := v(sc, 4, 0, rng).InstrMul
	if lo != 0.8 || hi != 1.2 {
		t.Errorf("imbalance endpoints = %v, %v", lo, hi)
	}
	mid := v(sc, 2, 0, rng).InstrMul
	if mid != 1.0 {
		t.Errorf("imbalance midpoint = %v", mid)
	}
	// Single rank: no imbalance.
	if got := v(mpisim.Scenario{Ranks: 1}, 0, 0, rng); got.InstrMul != 0 && got.InstrMul != 1 {
		t.Errorf("single-rank imbalance = %+v", got)
	}
}

func TestHelperCombineVary(t *testing.T) {
	a := func(mpisim.Scenario, int, int, *rand.Rand) mpisim.Variation {
		return mpisim.Variation{IPCMul: 2}
	}
	b := func(mpisim.Scenario, int, int, *rand.Rand) mpisim.Variation {
		return mpisim.Variation{IPCMul: 3, Skip: true}
	}
	got := combineVary(a, nil, b)(mpisim.Scenario{}, 0, 0, nil)
	if got.IPCMul != 6 {
		t.Errorf("combined IPCMul = %v, want 6", got.IPCMul)
	}
	if !got.Skip {
		t.Error("Skip lost in combination")
	}
	if got.InstrMul != 1 || got.WSMul != 1 {
		t.Errorf("neutral factors = %+v", got)
	}
}

func TestHelperScaleFunctions(t *testing.T) {
	sc := mpisim.Scenario{Ranks: 8, ProblemScale: 3}
	if got := constInstr(5)(sc); got != 5 {
		t.Errorf("constInstr = %v", got)
	}
	if got := strongScaled(80)(sc); got != 10 {
		t.Errorf("strongScaled = %v", got)
	}
	if got := problemScaled(4)(sc); got != 12 {
		t.Errorf("problemScaled = %v", got)
	}
	if got := constWS(7)(sc); got != 7 {
		t.Errorf("constWS = %v", got)
	}
	if got := problemWS(2)(sc); got != 6 {
		t.Errorf("problemWS = %v", got)
	}
}

func TestCompilerFactorsMatchPaper(t *testing.T) {
	// Table 3's arithmetic hinges on these exact factors.
	xlf := machine.XLF()
	if xlf.InstrFactor != 0.64 || xlf.IPCFactor != 0.64 {
		t.Errorf("xlf factors = %+v", xlf)
	}
	ifort := machine.IFort()
	if ifort.InstrFactor != 0.70 {
		t.Errorf("ifort instr factor = %v", ifort.InstrFactor)
	}
}

// TestStudySimulateWindows: a windowed study splits the trace of its one
// run into Windows traces, and a windowed study with several runs is
// rejected instead of silently analysing the first.
func TestStudySimulateWindows(t *testing.T) {
	ctx := context.Background()
	st := Synthetic(SyntheticParams{})
	if len(st.Runs) < 2 {
		t.Fatalf("synthetic study has %d runs, want several", len(st.Runs))
	}
	multi := st
	multi.Windows = 4
	if _, err := multi.Simulate(ctx); err == nil || !strings.Contains(err.Error(), "exactly one trace") {
		t.Fatalf("windowed multi-run study: err = %v, want the exactly-one-trace error", err)
	}

	single := st
	single.Runs = st.Runs[:1]
	single.Windows = 4
	got, err := single.Simulate(ctx)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := mpisim.SimulateSeriesContext(ctx, single.Runs)
	if err != nil {
		t.Fatal(err)
	}
	want := whole[0].SplitWindows(4)
	if len(got) != 4 || !reflect.DeepEqual(got, want) {
		t.Fatalf("windowed study gave %d traces, want the 4 of SplitWindows(4)", len(got))
	}

	// Without windows every run becomes one trace.
	all, err := st.Simulate(ctx)
	if err != nil || len(all) != len(st.Runs) {
		t.Fatalf("unwindowed study = %d traces (%v), want %d", len(all), err, len(st.Runs))
	}
}
