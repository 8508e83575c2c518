package mpisim

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"perftrack/internal/machine"
	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

func testApp() AppSpec {
	return AppSpec{
		Name: "test",
		Phases: []PhaseSpec{
			{
				Name:      "compute",
				Stack:     trace.CallstackRef{Function: "compute", File: "a.c", Line: 10},
				Instr:     func(Scenario) float64 { return 1e7 },
				IPCFactor: 0.5,
				MemFrac:   0.05,
			},
			{
				Name:      "reduce",
				Stack:     trace.CallstackRef{Function: "reduce", File: "a.c", Line: 20},
				Instr:     func(Scenario) float64 { return 4e6 },
				IPCFactor: 0.8,
				MemFrac:   0.05,
			},
		},
	}
}

func testScenario() Scenario {
	return Scenario{
		Label:      "t",
		Ranks:      4,
		Arch:       machine.MareNostrum(),
		Compiler:   machine.GFortran(),
		Iterations: 3,
		Seed:       99,
	}
}

func TestSimulateBurstCount(t *testing.T) {
	tr, err := Simulate(testApp(), testScenario())
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * 3 * 2 // ranks x iterations x phases
	if len(tr.Bursts) != want {
		t.Errorf("bursts = %d, want %d", len(tr.Bursts), want)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("invalid trace: %v", err)
	}
}

func TestSimulateMetadata(t *testing.T) {
	sc := testScenario()
	sc.TasksPerNode = 2
	sc.ProblemScale = 2.5
	tr, err := Simulate(testApp(), sc)
	if err != nil {
		t.Fatal(err)
	}
	m := tr.Meta
	if m.App != "test" || m.Label != "t" || m.Ranks != 4 || m.TasksPerNode != 2 {
		t.Errorf("meta = %+v", m)
	}
	if m.Machine != "MareNostrum" || m.Compiler != "gfortran" {
		t.Errorf("meta machine/compiler = %+v", m)
	}
	if m.Params["problemScale"] != "2.5" {
		t.Errorf("params = %v", m.Params)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(testApp(), testScenario())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(testApp(), testScenario())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Bursts, b.Bursts) {
		t.Error("same seed produced different traces")
	}
	sc := testScenario()
	sc.Seed++
	c, err := Simulate(testApp(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Bursts, c.Bursts) {
		t.Error("different seed produced identical traces")
	}
}

func TestSimulateSPMDBarriers(t *testing.T) {
	// All ranks start each phase instance at the same timestamp (barrier
	// semantics): the structure the SPMD evaluator relies on.
	tr, err := Simulate(testApp(), testScenario())
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int64]int{} // start time -> #bursts starting there
	for _, b := range tr.Bursts {
		starts[b.StartNS]++
	}
	for ts, n := range starts {
		if n != 4 {
			t.Errorf("%d bursts start at %d, want one per rank (4)", n, ts)
		}
	}
}

func TestSimulatePhaseAnnotations(t *testing.T) {
	tr, err := Simulate(testApp(), testScenario())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, b := range tr.Bursts {
		seen[b.Phase]++
	}
	if seen[1] != 12 || seen[2] != 12 {
		t.Errorf("phase counts = %v", seen)
	}
}

func TestSimulatePerTaskChronology(t *testing.T) {
	tr, err := Simulate(testApp(), testScenario())
	if err != nil {
		t.Fatal(err)
	}
	for task, seq := range tr.PerTaskSequences() {
		prevEnd := int64(-1)
		for _, bi := range seq {
			b := tr.Bursts[bi]
			if b.StartNS < prevEnd {
				t.Fatalf("task %d bursts overlap", task)
			}
			prevEnd = b.EndNS()
		}
	}
}

func TestSimulateNoiseDisabled(t *testing.T) {
	app := testApp()
	app.Phases[0].NoiseInstr = -1
	app.Phases[0].NoiseIPC = -1
	tr, err := Simulate(app, testScenario())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tr.Bursts {
		if b.Phase != 1 {
			continue
		}
		if b.Counters[metrics.CtrInstructions] != 1e7 {
			t.Fatalf("noise-free instructions = %v, want 1e7", b.Counters[metrics.CtrInstructions])
		}
	}
}

func TestSimulateNoiseEnabled(t *testing.T) {
	tr, err := Simulate(testApp(), testScenario())
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[float64]bool{}
	for _, b := range tr.Bursts {
		if b.Phase == 1 {
			distinct[b.Counters[metrics.CtrInstructions]] = true
		}
	}
	if len(distinct) < 2 {
		t.Error("default noise produced identical instruction counts")
	}
}

func TestVariationHooks(t *testing.T) {
	app := testApp()
	override := trace.CallstackRef{Function: "alt", File: "b.c", Line: 99}
	app.Phases[0].NoiseInstr = -1
	app.Phases[0].NoiseIPC = -1
	app.Phases[0].Vary = func(_ Scenario, rank, _ int, _ *rand.Rand) Variation {
		switch rank {
		case 0:
			return Variation{Skip: true}
		case 1:
			return Variation{InstrMul: 2, Stack: &override}
		default:
			return Variation{}
		}
	}
	tr, err := Simulate(app, testScenario())
	if err != nil {
		t.Fatal(err)
	}
	var rank0, rank1 int
	for _, b := range tr.Bursts {
		if b.Phase != 1 {
			continue
		}
		switch b.Task {
		case 0:
			rank0++
		case 1:
			rank1++
			if b.Counters[metrics.CtrInstructions] != 2e7 {
				t.Errorf("InstrMul ignored: %v", b.Counters[metrics.CtrInstructions])
			}
			if b.Stack != override {
				t.Errorf("stack override ignored: %v", b.Stack)
			}
		}
	}
	if rank0 != 0 {
		t.Errorf("Skip ignored: rank 0 has %d phase-1 bursts", rank0)
	}
	if rank1 != 3 {
		t.Errorf("rank 1 phase-1 bursts = %d, want 3", rank1)
	}
}

func TestRepeat(t *testing.T) {
	app := testApp()
	app.Phases[0].Repeat = 3
	tr, err := Simulate(app, testScenario())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, b := range tr.Bursts {
		if b.Phase == 1 {
			count++
		}
	}
	if count != 4*3*3 { // ranks x iterations x repeat
		t.Errorf("repeated phase bursts = %d, want 36", count)
	}
}

func TestValidationErrors(t *testing.T) {
	sc := testScenario()
	if _, err := Simulate(AppSpec{}, sc); err == nil {
		t.Error("unnamed app accepted")
	}
	if _, err := Simulate(AppSpec{Name: "x"}, sc); err == nil {
		t.Error("phase-less app accepted")
	}
	app := testApp()
	app.Phases[0].Instr = nil
	if _, err := Simulate(app, sc); err == nil {
		t.Error("missing Instr accepted")
	}
	app = testApp()
	app.Phases[0].MemFrac = 1.5
	if _, err := Simulate(app, sc); err == nil {
		t.Error("MemFrac > 1 accepted")
	}
	bad := sc
	bad.Ranks = 0
	if _, err := Simulate(testApp(), bad); err == nil {
		t.Error("zero ranks accepted")
	}
	bad = sc
	bad.Arch = machine.Arch{}
	if _, err := Simulate(testApp(), bad); err == nil {
		t.Error("invalid arch accepted")
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{Ranks: 2, Arch: machine.MareNostrum(), Compiler: machine.GFortran()}
	n := sc.normalised()
	if n.Iterations != 10 || n.ProblemScale != 1 {
		t.Errorf("defaults = %+v", n)
	}
	if n.TasksPerNode != 4 {
		t.Errorf("TasksPerNode default = %d, want node capacity 4", n.TasksPerNode)
	}
	// Oversized TasksPerNode is clamped to the node.
	sc.TasksPerNode = 99
	if got := sc.normalised().TasksPerNode; got != 4 {
		t.Errorf("clamped TasksPerNode = %d", got)
	}
}

func TestNodePackingContention(t *testing.T) {
	// Packing the same ranks onto fewer nodes must not speed anything up.
	app := AppSpec{
		Name: "mem",
		Phases: []PhaseSpec{{
			Name:       "stream",
			Stack:      trace.CallstackRef{Function: "s", File: "s.c", Line: 1},
			Instr:      func(Scenario) float64 { return 1e7 },
			MemFrac:    0.3,
			WorkingSet: func(Scenario) float64 { return 4 * 1024 * 1024 },
			IPCFactor:  0.6,
			L2Floor:    0.3,
			MLP:        10,
			NoiseInstr: -1,
			NoiseIPC:   -1,
		}},
	}
	mean := func(tpn int) float64 {
		sc := Scenario{
			Label: "x", Ranks: 12, TasksPerNode: tpn,
			Arch: machine.MinoTauro(), Compiler: machine.GFortran(),
			Iterations: 2, Seed: 5,
		}
		tr, err := Simulate(app, sc)
		if err != nil {
			t.Fatal(err)
		}
		var sumI, sumC float64
		for _, b := range tr.Bursts {
			sumI += b.Counters[metrics.CtrInstructions]
			sumC += b.Counters[metrics.CtrCycles]
		}
		return sumI / sumC
	}
	spread := mean(1)
	packed := mean(12)
	if packed >= spread {
		t.Errorf("packing did not degrade IPC: %v vs %v", packed, spread)
	}
}

func TestGaussMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	if gaussMul(rng, 0) != 1 {
		t.Error("zero sigma should be exactly 1")
	}
	v := gaussMul(rng, 0.1)
	if v <= 0 || math.IsNaN(v) {
		t.Errorf("gaussMul = %v", v)
	}
}

func TestPhaseRNGIndependence(t *testing.T) {
	// Different (phase, rank, iter) triples get independent, stable
	// streams.
	a1 := phaseRNG(1, 0, 0, 0).Float64()
	a2 := phaseRNG(1, 0, 0, 0).Float64()
	if a1 != a2 {
		t.Error("phaseRNG not stable")
	}
	b := phaseRNG(1, 0, 1, 0).Float64()
	if a1 == b {
		t.Error("phaseRNG identical across ranks")
	}
}

func TestSimulateSeries(t *testing.T) {
	runs := []Run{
		{App: testApp(), Scenario: testScenario()},
		{App: testApp(), Scenario: testScenario()},
	}
	traces, err := SimulateSeriesContext(context.Background(), runs)
	if err != nil || len(traces) != 2 {
		t.Fatalf("SimulateSeries = %v, %v", traces, err)
	}
	bad := runs
	bad[1].Scenario.Ranks = 0
	if _, err := SimulateSeriesContext(context.Background(), bad); err == nil {
		t.Error("SimulateSeries accepted a bad run")
	}
}

func BenchmarkSimulate(b *testing.B) {
	app := testApp()
	sc := testScenario()
	sc.Ranks = 64
	sc.Iterations = 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(app, sc); err != nil {
			b.Fatal(err)
		}
	}
}
